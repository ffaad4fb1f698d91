// Crypto throughput: the primitives the benchmark's pipeline workloads
// do not time on their own, plus the batch-GCD scaling curve.
//
//  - keygen:   2048-bit RSA key generation, where a cold deployment
//              spends its time (windowed Montgomery + packed sieve). The
//              pipeline workloads read their keys from the corpus cache,
//              so this is the only place keygen is timed,
//  - modexp:   2048-bit modular exponentiation (the secure-channel and
//              signature primitive),
//  - batchgcd: shared-prime sweep time vs. modulus count (product +
//              remainder trees on 512-bit moduli), checked for clearly
//              sub-quadratic growth — the property that makes a 100k-host
//              corpus feasible where pairwise GCD is O(n²),
//  - sha1/sha256: one-shot digests of 1 KiB messages, about the size of a
//              certificate DER, so the SHA-1 rate is the thumbprint rate
//              of the snapshot write, open and analysis paths.
// The outputs of the first three are pinned bit for bit by
// RsaKeygen.GoldenKeysMatchRecordedDigests (tests/test_rsa.cpp), the
// digests by the known answers in tests/test_hash.cpp; this binary only
// times them. Results are emitted to BENCH_crypto.json, which
// CI checks against bench/baselines/crypto.json.
//
//   ./build/crypto_throughput [--quick] [--json PATH] [max_moduli]
//
// max_moduli caps the batch-GCD curve (and adds itself as its last
// point); a cap that leaves fewer than two points exits 2.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "crypto/batch_gcd.hpp"
#include "crypto/hash.hpp"
#include "crypto/rsa.hpp"
#include "obs/log.hpp"
#include "report/json.hpp"
#include "report/report.hpp"

using namespace opcua_study;

namespace {

constexpr std::uint64_t kSeed = 20200209;

/// Written with the folded digest bytes so the timed hashing stays observable.
volatile std::uint8_t g_hash_sink = 0;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_crypto.json";
  std::size_t max_moduli = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      max_moduli = static_cast<std::size_t>(std::atol(argv[i]));
    }
  }

  std::vector<std::size_t> counts = quick ? std::vector<std::size_t>{250, 1000, 4000}
                                          : std::vector<std::size_t>{1000, 10000, 100000};
  if (max_moduli) {
    while (counts.size() > 1 && counts.back() > max_moduli) counts.pop_back();
    if (counts.back() != max_moduli && max_moduli > counts.front()) counts.push_back(max_moduli);
  }
  if (counts.size() < 2) {
    std::fprintf(stderr,
                 "usage: crypto_throughput [--quick] [--json PATH] [max_moduli]\n"
                 "max_moduli %zu leaves one batch-GCD point; the scaling exponent needs a "
                 "cap above %zu\n",
                 max_moduli, counts.front());
    return 2;
  }

  // ---- keygen: 2048-bit keys -------------------------------------------
  const int keygen_count = quick ? 1 : 3;
  obs::logf(obs::LogLevel::info, "[bench] keygen: %d x 2048-bit...", keygen_count);
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < keygen_count; ++i) {
    Rng rng(kSeed + static_cast<std::uint64_t>(i));
    (void)rsa_generate(rng, 2048, 12);
  }
  const double keygen_s = seconds_since(start) / keygen_count;

  // ---- modexp: 2048-bit base^exp mod n ----------------------------------
  Rng mx_rng(kSeed ^ 0x6d78);  // "mx"
  Bignum mod = Bignum::random_bits(mx_rng, 2048);
  mod.set_bit(2047);
  mod.set_bit(0);
  const Bignum base = Bignum::random_bits(mx_rng, 2048);
  const Bignum exp = Bignum::random_bits(mx_rng, 2048);
  const int modexp_reps = quick ? 12 : 60;
  obs::logf(obs::LogLevel::info, "[bench] modexp: %d reps...", modexp_reps);
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < modexp_reps; ++i) (void)Bignum::mod_pow(base, exp, mod);
  const double modexp_s = seconds_since(start) / modexp_reps;

  // ---- batch-GCD scaling: 512-bit moduli --------------------------------
  Rng bg_rng(kSeed ^ 0x6267);  // "bg"
  std::vector<Bignum> moduli;
  moduli.reserve(counts.back());
  while (moduli.size() < counts.back()) {
    Bignum m = Bignum::random_bits(bg_rng, 512);
    m.set_bit(511);
    m.set_bit(0);
    moduli.push_back(std::move(m));
  }
  std::vector<double> seconds;
  for (const std::size_t count : counts) {
    obs::logf(obs::LogLevel::info, "[bench] batch-GCD over %zu x 512-bit moduli...", count);
    const std::vector<Bignum> slice(moduli.begin(),
                                    moduli.begin() + static_cast<std::ptrdiff_t>(count));
    start = std::chrono::steady_clock::now();
    (void)batch_gcd(slice);
    seconds.push_back(seconds_since(start));
  }
  // Empirical scaling exponent: t ~ count^e between the curve's endpoints.
  const double growth_exponent =
      std::log(seconds.back() / std::max(seconds.front(), 1e-12)) /
      std::log(static_cast<double>(counts.back()) / static_cast<double>(counts.front()));

  // ---- hashing: one-shot digests of 1 KiB messages ----------------------
  Rng hash_rng(kSeed ^ 0x6873);  // "hs"
  const Bytes message = hash_rng.bytes(1024);
  const int hash_messages = quick ? 32768 : 131072;
  const auto megabytes_per_sec = [&](HashAlgorithm alg) {
    obs::logf(obs::LogLevel::info, "[bench] %s: %d x 1 KiB...", hash_name(alg).c_str(),
              hash_messages);
    std::uint8_t sink = 0;
    const auto hash_start = std::chrono::steady_clock::now();
    for (int i = 0; i < hash_messages; ++i) sink ^= hash(alg, message)[0];
    const double s = seconds_since(hash_start);
    g_hash_sink = sink;
    return static_cast<double>(hash_messages) * static_cast<double>(message.size()) / 1e6 / s;
  };
  const double sha1_mbps = megabytes_per_sec(HashAlgorithm::sha1);
  const double sha256_mbps = megabytes_per_sec(HashAlgorithm::sha256);

  // ---- report -----------------------------------------------------------
  std::puts("Crypto throughput (64-bit limb core)\n");
  TextTable table;
  table.set_header({"primitive", "rate"});
  table.add_row({"2048-bit keygen", fmt_double(1.0 / keygen_s, 2) + " keys/s"});
  table.add_row({"2048-bit modexp", fmt_double(1.0 / modexp_s, 1) + " ops/s"});
  table.add_row({"SHA-1, 1 KiB messages", fmt_double(sha1_mbps, 1) + " MB/s"});
  table.add_row({"SHA-256, 1 KiB messages", fmt_double(sha256_mbps, 1) + " MB/s"});
  std::fputs(table.str().c_str(), stdout);

  std::puts("\nBatch-GCD scaling (512-bit moduli)");
  TextTable curve;
  curve.set_header({"moduli", "seconds", "us/modulus"});
  for (std::size_t i = 0; i < counts.size(); ++i) {
    curve.add_row({fmt_int(static_cast<long>(counts[i])), fmt_double(seconds[i], 3),
                   fmt_double(1e6 * seconds[i] / static_cast<double>(counts[i]), 1)});
  }
  std::fputs(curve.str().c_str(), stdout);
  // Karatsuba-backed trees give t ~ n^1.3..1.5 (log factors included);
  // pairwise GCD is exactly 2.
  std::printf("scaling exponent (1 = linear, 2 = quadratic): %s\n",
              fmt_double(growth_exponent, 2).c_str());

  // ---- machine-readable trajectory --------------------------------------
  JsonWriter json;
  json.begin_object()
      .field("quick", quick)
      .key("keygen_2048")
      .begin_object()
      .field("keys", keygen_count)
      .field("keys_per_sec", 1.0 / keygen_s)
      .end_object()
      .key("modexp_2048")
      .begin_object()
      .field("reps", modexp_reps)
      .field("ops_per_sec", 1.0 / modexp_s)
      .end_object()
      .key("sha1_1k")
      .begin_object()
      .field("messages", hash_messages)
      .field("mb_per_sec", sha1_mbps)
      .end_object()
      .key("sha256_1k")
      .begin_object()
      .field("messages", hash_messages)
      .field("mb_per_sec", sha256_mbps)
      .end_object()
      .key("batch_gcd")
      .begin_object()
      .field("modulus_bits", 512)
      .key("points")
      .begin_array();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    json.begin_object()
        .field("count", static_cast<std::uint64_t>(counts[i]))
        .field("seconds", seconds[i])
        .end_object();
  }
  json.end_array().field("scaling_exponent", growth_exponent).end_object().end_object();
  std::ofstream(json_path, std::ios::trunc) << json.str();
  obs::logf(obs::LogLevel::info, "[bench] wrote %s", json_path.c_str());
  return 0;
}
