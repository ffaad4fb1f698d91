// Posture sketch sidecar serialization (format in sketch.hpp).
#include "series/sketch.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "scanner/snapshot_io.hpp"
#include "util/rng.hpp"

namespace opcua_study {

namespace {

constexpr std::uint32_t kSketchMagic = 0x484b5350u;  // 'PSKH' little-endian
constexpr std::uint32_t kSketchVersion = 1;
// magic + version + fingerprint + count.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

void put_u16(std::string& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// Bounds-checked little-endian cursor over the loaded sidecar bytes.
struct SketchCursor {
  const std::string& bytes;
  const std::string& sketch_path;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > bytes.size()) {
      throw SnapshotError("posture sketch '" + sketch_path + "' is truncated: need " +
                          std::to_string(n) + " bytes at offset " + std::to_string(pos) +
                          ", file holds " + std::to_string(bytes.size()));
    }
  }
  std::uint64_t take(std::size_t n) {
    need(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[pos + i])) << (8 * i);
    }
    pos += n;
    return v;
  }
  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(take(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return take(8); }
};

}  // namespace

std::string posture_sketch_path(const std::string& snapshot_path) {
  return snapshot_path + ".sketch";
}

void write_posture_sketch(const std::string& sketch_path, std::uint64_t snapshot_fingerprint,
                          const std::vector<HostPosture>& postures) {
  std::string bytes;
  bytes.reserve(kHeaderBytes + postures.size() * 32 + 8);
  put_u32(bytes, kSketchMagic);
  put_u32(bytes, kSketchVersion);
  put_u64(bytes, snapshot_fingerprint);
  put_u64(bytes, static_cast<std::uint64_t>(postures.size()));
  for (const HostPosture& p : postures) {
    put_u32(bytes, p.ip);
    put_u16(bytes, p.port);
    bytes.push_back(static_cast<char>(static_cast<std::uint8_t>(p.protocol)));
    const std::uint8_t flags = static_cast<std::uint8_t>((p.supports_deprecated ? 1u : 0u) |
                                                         (p.anonymous ? 2u : 0u) |
                                                         (p.deficient ? 4u : 0u));
    bytes.push_back(static_cast<char>(flags));
    put_u32(bytes, p.asn);
    put_u64(bytes, p.uri_hash);
    bytes.push_back(static_cast<char>(p.mode_bucket));
    bytes.push_back(static_cast<char>(p.policy_bucket));
    if (p.fps.size() > 0xffff) {
      throw SnapshotError("posture sketch '" + sketch_path + "': host carries " +
                          std::to_string(p.fps.size()) + " fingerprints (format cap 65535)");
    }
    put_u16(bytes, static_cast<std::uint16_t>(p.fps.size()));
    for (const std::uint64_t fp : p.fps) put_u64(bytes, fp);
  }
  put_u64(bytes, hash64(std::string_view(bytes).substr(kHeaderBytes)));

  // Write-then-rename: an interrupted write leaves only a .tmp, never a
  // readable half-sketch.
  const std::string tmp = sketch_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError("cannot open posture sketch for writing: " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw SnapshotError("short write to posture sketch: " + tmp);
  }
  if (std::rename(tmp.c_str(), sketch_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("cannot move posture sketch into place: " + sketch_path);
  }
}

std::optional<std::vector<HostPosture>> read_posture_sketch(const std::string& sketch_path,
                                                            const std::string& snapshot_path,
                                                            std::uint64_t snapshot_fingerprint,
                                                            std::uint64_t expected_postures) {
  std::ifstream in(sketch_path, std::ios::binary);
  if (!in) return std::nullopt;  // no sidecar: caller runs the posture pass
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  SketchCursor c{bytes, sketch_path};
  if (c.u32() != kSketchMagic) {
    throw SnapshotError("posture sketch '" + sketch_path + "' has bad magic (not a sketch file)");
  }
  const std::uint32_t version = c.u32();
  if (version != kSketchVersion) {
    throw SnapshotError("posture sketch '" + sketch_path + "' has unsupported version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kSketchVersion) + ")");
  }
  const std::uint64_t stamped = c.u64();
  if (stamped != snapshot_fingerprint) {
    throw SnapshotError(
        "stale posture sketch: sidecar '" + sketch_path + "' was written for a snapshot with "
        "fingerprint " + std::to_string(stamped) + ", but snapshot '" + snapshot_path +
        "' now fingerprints as " + std::to_string(snapshot_fingerprint) +
        " — the snapshot changed after the sketch was cut; delete the sidecar to regenerate it");
  }
  const std::uint64_t count = c.u64();
  if (count != expected_postures) {
    throw SnapshotError("posture sketch '" + sketch_path + "' holds " + std::to_string(count) +
                        " postures but snapshot '" + snapshot_path +
                        "' reports a final host count of " + std::to_string(expected_postures));
  }
  if (bytes.size() < kHeaderBytes + 8) {
    throw SnapshotError("posture sketch '" + sketch_path +
                        "' is truncated: no room for the payload checksum");
  }
  std::uint64_t stored_checksum = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    stored_checksum |=
        static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[bytes.size() - 8 + i]))
        << (8 * i);
  }
  if (hash64(std::string_view(bytes).substr(kHeaderBytes, bytes.size() - kHeaderBytes - 8)) !=
      stored_checksum) {
    throw SnapshotError("posture sketch '" + sketch_path +
                        "' failed its payload checksum (corrupt or tampered sidecar) for "
                        "snapshot '" + snapshot_path + "'");
  }

  std::vector<HostPosture> postures;
  postures.reserve(count);
  const std::size_t payload_end = bytes.size() - 8;
  // The checksum is no MAC: a sidecar can carry a valid checksum over
  // out-of-range fields, and the bucket bytes index transition tables.
  auto field = [&](std::uint64_t index, const char* name, std::uint8_t max) {
    const std::uint8_t value = c.u8();
    if (value > max) {
      throw SnapshotError("posture sketch '" + sketch_path + "': posture " +
                          std::to_string(index) + " has " + name + " " +
                          std::to_string(value) + " (max " + std::to_string(max) + ")");
    }
    return value;
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    HostPosture p;
    p.ip = c.u32();
    p.port = c.u16();
    p.protocol = static_cast<ProtocolId>(field(i, "protocol", kProtocolCount - 1));
    const std::uint8_t flags = field(i, "flags", 7);
    p.supports_deprecated = (flags & 1u) != 0;
    p.anonymous = (flags & 2u) != 0;
    p.deficient = (flags & 4u) != 0;
    p.asn = c.u32();
    p.uri_hash = c.u64();
    p.mode_bucket = field(i, "mode_bucket", 2);
    p.policy_bucket = field(i, "policy_bucket", 2);
    const std::uint16_t fp_count = c.u16();
    p.fps.reserve(fp_count);
    for (std::uint16_t k = 0; k < fp_count; ++k) p.fps.push_back(c.u64());
    postures.push_back(std::move(p));
  }
  if (c.pos != payload_end) {
    throw SnapshotError("posture sketch '" + sketch_path + "' carries " +
                        std::to_string(payload_end - c.pos) + " trailing bytes after posture " +
                        std::to_string(count));
  }
  return postures;
}

std::vector<HostPosture> ensure_posture_sketch(const std::string& path, std::uint64_t seed,
                                               ThreadPool& pool) {
  const SnapshotReader reader(path, seed);
  if (reader.snapshots().empty()) {
    throw SnapshotError("posture sketch: snapshot '" + path + "' holds no measurement");
  }
  const std::uint64_t fingerprint = reader.file_fingerprint();
  const std::uint64_t hosts = reader.snapshots().back().host_count;
  const std::string sidecar = posture_sketch_path(path);
  if (auto cached = read_posture_sketch(sidecar, path, fingerprint, hosts)) {
    return *std::move(cached);
  }
  const ReaderRecordSource source(reader);
  std::vector<HostPosture> postures = collect_postures(source, pool);
  write_posture_sketch(sidecar, fingerprint, postures);
  return postures;
}

}  // namespace opcua_study
