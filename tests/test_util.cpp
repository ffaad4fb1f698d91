// util module: byte readers/writers, hex, dates, IPv4/CIDR.
#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/date.hpp"
#include "util/hex.hpp"
#include "util/ipv4.hpp"

namespace opcua_study {
namespace {

TEST(Bytesio, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0102030405060708ULL);
  w.i32(-42);
  w.f64(3.5);
  w.raw(to_bytes("hello"));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.f64(), 3.5);
  EXPECT_EQ(to_string(r.view(5)), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Bytesio, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x11223344);
  EXPECT_EQ(to_hex(w.bytes()), "44332211");
}

TEST(Bytesio, ReaderUnderflowThrows) {
  const Bytes data{1, 2, 3};
  ByteReader r(data);
  r.skip(2);
  EXPECT_THROW(r.u32(), DecodeError);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(Bytesio, PatchU32) {
  ByteWriter w;
  w.u32(0);
  w.u8(9);
  w.patch_u32(0, 0xcafebabe);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0xcafebabeu);
  EXPECT_THROW(w.patch_u32(2, 1), std::logic_error);
}

TEST(Hex, RoundTrip) {
  const Bytes data{0x00, 0x7f, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "007fff10");
  EXPECT_EQ(from_hex("007fff10"), data);
  EXPECT_EQ(from_hex("AbCd"), (Bytes{0xab, 0xcd}));
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Dates, CivilRoundTrip) {
  for (const CivilDate d : {CivilDate{1970, 1, 1}, CivilDate{2000, 2, 29}, CivilDate{2017, 1, 1},
                            CivilDate{2020, 8, 30}, CivilDate{2050, 12, 31}}) {
    EXPECT_EQ(civil_from_days(days_from_civil(d)), d);
  }
  EXPECT_EQ(days_from_civil({1970, 1, 1}), 0);
  EXPECT_EQ(days_from_civil({1970, 1, 2}), 1);
  EXPECT_EQ(days_from_civil({2020, 2, 9}) - days_from_civil({2020, 2, 2}), 7);
}

TEST(Dates, FormatParse) {
  EXPECT_EQ(format_date({2020, 8, 30}), "2020-08-30");
  EXPECT_EQ(parse_date("2020-08-30"), (CivilDate{2020, 8, 30}));
  EXPECT_THROW(parse_date("garbage"), std::invalid_argument);
}

TEST(Dates, MeasurementCalendar) {
  EXPECT_EQ(format_date(measurement_date(0)), "2020-02-09");
  EXPECT_EQ(format_date(measurement_date(3)), "2020-05-04");
  EXPECT_EQ(format_date(measurement_date(7)), "2020-08-30");
  EXPECT_THROW(measurement_date(8), std::out_of_range);
  EXPECT_GT(measurement_days(7), measurement_days(0));
}

TEST(Dates, FiletimeRoundTrip) {
  const std::int64_t days = days_from_civil({2020, 5, 4});
  EXPECT_EQ(days_from_filetime(filetime_from_days(days)), days);
  EXPECT_GT(filetime_from_days(0), 0);  // 1970 is after 1601
}

TEST(Ipv4, FormatParse) {
  EXPECT_EQ(format_ipv4(make_ipv4(192, 168, 1, 200)), "192.168.1.200");
  EXPECT_EQ(parse_ipv4("10.0.0.1"), make_ipv4(10, 0, 0, 1));
  EXPECT_THROW(parse_ipv4("300.0.0.1"), std::invalid_argument);
  EXPECT_THROW(parse_ipv4("foo"), std::invalid_argument);
  EXPECT_EQ(parse_ipv4("255.255.255.255"), make_ipv4(255, 255, 255, 255));
  // Nothing before, between or after the four octets, and no octet wider
  // than three digits or out of range.
  for (const char* bad : {"1.2.3.4.example.com", "10.0.0.1evil", "1.2.3.4294967297", "1.2.3",
                          "1.2.3.", " 1.2.3.4", "1.2.3.4 ", "+1.2.3.4", "1.-2.3.4", "1..3.4",
                          "1.2.3.0004", "1.2.3.256", ""}) {
    EXPECT_THROW(parse_ipv4(bad), std::invalid_argument) << bad;
  }
}

TEST(Ipv4, CidrContainsAndSize) {
  const Cidr c = parse_cidr("10.1.0.0/16");
  EXPECT_TRUE(c.contains(make_ipv4(10, 1, 200, 3)));
  EXPECT_FALSE(c.contains(make_ipv4(10, 2, 0, 1)));
  EXPECT_EQ(c.size(), 65536u);
  EXPECT_EQ(c.first(), make_ipv4(10, 1, 0, 0));
  const Cidr all = parse_cidr("0.0.0.0/0");
  EXPECT_TRUE(all.contains(make_ipv4(255, 255, 255, 255)));
  EXPECT_EQ(all.size(), std::uint64_t{1} << 32);
  const Cidr host = parse_cidr("1.2.3.4");
  EXPECT_EQ(host.prefix_len, 32);
  EXPECT_TRUE(host.contains(make_ipv4(1, 2, 3, 4)));
  EXPECT_FALSE(host.contains(make_ipv4(1, 2, 3, 5)));
  EXPECT_EQ(format_cidr(c), "10.1.0.0/16");
}

}  // namespace
}  // namespace opcua_study
