// Posture sketch sidecar serialization (format in sketch.hpp) and the one
// posture loader over it.
#include "series/sketch.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "scanner/snapshot_io.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace opcua_study {

namespace {

constexpr std::uint32_t kSketchMagic = 0x484b5350u;  // 'PSKH' little-endian
constexpr std::uint32_t kSketchVersion = 1;
// magic + version + fingerprint + count.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

/// hash64 over `bytes` (the payload checksum).
std::uint64_t checksum(std::span<const std::uint8_t> bytes) {
  return hash64(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

/// Decodes the sidecar `bytes` through `r`; a read past the end throws
/// DecodeError, which read_posture_sketch reports with `r`'s offset.
std::vector<HostPosture> decode_sketch(ByteReader& r, std::span<const std::uint8_t> bytes,
                                       const std::string& sketch_path,
                                       const std::string& snapshot_path,
                                       std::uint64_t snapshot_fingerprint,
                                       std::uint64_t expected_postures) {
  if (r.u32() != kSketchMagic) {
    throw SnapshotError("posture sketch '" + sketch_path + "' has bad magic (not a sketch file)");
  }
  const std::uint32_t version = r.u32();
  if (version != kSketchVersion) {
    throw SnapshotError("posture sketch '" + sketch_path + "' has unsupported version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kSketchVersion) + ")");
  }
  const std::uint64_t stamped = r.u64();
  if (stamped != snapshot_fingerprint) {
    throw SnapshotError(
        "stale posture sketch: sidecar '" + sketch_path + "' was written for a snapshot with "
        "fingerprint " + std::to_string(stamped) + ", but snapshot '" + snapshot_path +
        "' now fingerprints as " + std::to_string(snapshot_fingerprint) +
        " — the snapshot changed after the sketch was cut; delete the sidecar to regenerate it");
  }
  const std::uint64_t count = r.u64();
  if (count != expected_postures) {
    throw SnapshotError("posture sketch '" + sketch_path + "' holds " + std::to_string(count) +
                        " postures but snapshot '" + snapshot_path +
                        "' reports a final host count of " + std::to_string(expected_postures));
  }
  if (bytes.size() < kHeaderBytes + 8) {
    throw SnapshotError("posture sketch '" + sketch_path +
                        "' is truncated: no room for the payload checksum");
  }
  const std::size_t payload_end = bytes.size() - 8;
  if (checksum(bytes.subspan(kHeaderBytes, payload_end - kHeaderBytes)) !=
      ByteReader(bytes.subspan(payload_end)).u64()) {
    throw SnapshotError("posture sketch '" + sketch_path +
                        "' failed its payload checksum (corrupt or tampered sidecar) for "
                        "snapshot '" + snapshot_path + "'");
  }

  std::vector<HostPosture> postures;
  postures.reserve(count);
  // The checksum is no MAC: a sidecar can carry a valid checksum over
  // out-of-range fields, and the bucket bytes index transition tables.
  auto field = [&](std::uint64_t index, const char* name, std::uint8_t max) {
    const std::uint8_t value = r.u8();
    if (value > max) {
      throw SnapshotError("posture sketch '" + sketch_path + "': posture " +
                          std::to_string(index) + " has " + name + " " +
                          std::to_string(value) + " (max " + std::to_string(max) + ")");
    }
    return value;
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    HostPosture p;
    p.ip = r.u32();
    p.port = r.u16();
    p.protocol = static_cast<ProtocolId>(field(i, "protocol", kProtocolCount - 1));
    const std::uint8_t flags = field(i, "flags", 7);
    p.supports_deprecated = (flags & 1u) != 0;
    p.anonymous = (flags & 2u) != 0;
    p.deficient = (flags & 4u) != 0;
    p.asn = r.u32();
    p.uri_hash = r.u64();
    p.mode_bucket = field(i, "mode_bucket", 2);
    p.policy_bucket = field(i, "policy_bucket", 2);
    const std::uint16_t fp_count = r.u16();
    p.fps.reserve(fp_count);
    for (std::uint16_t k = 0; k < fp_count; ++k) p.fps.push_back(r.u64());
    postures.push_back(std::move(p));
  }
  if (r.position() != payload_end) {
    throw SnapshotError("posture sketch '" + sketch_path + "' carries " +
                        std::to_string(payload_end - r.position()) +
                        " trailing bytes after posture " + std::to_string(count));
  }
  return postures;
}

}  // namespace

std::string posture_sketch_path(const std::string& snapshot_path) {
  return snapshot_path + ".sketch";
}

void write_posture_sketch(const std::string& sketch_path, std::uint64_t snapshot_fingerprint,
                          const std::vector<HostPosture>& postures) {
  ByteWriter w;
  w.u32(kSketchMagic);
  w.u32(kSketchVersion);
  w.u64(snapshot_fingerprint);
  w.u64(static_cast<std::uint64_t>(postures.size()));
  for (const HostPosture& p : postures) {
    w.u32(p.ip);
    w.u16(p.port);
    w.u8(static_cast<std::uint8_t>(p.protocol));
    w.u8(static_cast<std::uint8_t>((p.supports_deprecated ? 1u : 0u) | (p.anonymous ? 2u : 0u) |
                                   (p.deficient ? 4u : 0u)));
    w.u32(p.asn);
    w.u64(p.uri_hash);
    w.u8(p.mode_bucket);
    w.u8(p.policy_bucket);
    if (p.fps.size() > 0xffff) {
      throw SnapshotError("posture sketch '" + sketch_path + "': host carries " +
                          std::to_string(p.fps.size()) + " fingerprints (format cap 65535)");
    }
    w.u16(static_cast<std::uint16_t>(p.fps.size()));
    for (const std::uint64_t fp : p.fps) w.u64(fp);
  }
  w.u64(checksum(std::span(w.bytes()).subspan(kHeaderBytes)));

  // Write-then-rename: an interrupted write leaves only a .tmp, never a
  // readable half-sketch. The stream is checked after close(), which
  // flushes it, so a write the disk refuses throws too.
  const std::string tmp = sketch_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError("cannot open posture sketch for writing: " + tmp);
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.size()));
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      throw SnapshotError("write failure on posture sketch: " + tmp);
    }
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
  // One sized read. A path with no size (a directory) reads as empty and a
  // file that shrank since it was sized reads short; the decode below
  // reports either as truncated.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(sketch_path, error);
  Bytes bytes(error ? 0 : static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  ByteReader r(bytes);
  try {
    return decode_sketch(r, bytes, sketch_path, snapshot_path, snapshot_fingerprint,
                         expected_postures);
  } catch (const DecodeError&) {
    throw SnapshotError("posture sketch '" + sketch_path + "' is truncated at offset " +
                        std::to_string(r.position()) + ", file holds " +
                        std::to_string(bytes.size()) + " bytes");
  }
}

LoadedPostures load_postures(const SnapshotReader& reader, const std::string& path,
                             ThreadPool& pool, SidecarWrite write) {
  if (reader.snapshots().empty()) {
    throw SnapshotError("posture sketch: snapshot '" + path + "' holds no measurement");
  }
  const std::uint64_t fingerprint = reader.file_fingerprint();
  const std::string sidecar = posture_sketch_path(path);
  if (auto sketched = read_posture_sketch(sidecar, path, fingerprint,
                                          reader.snapshots().back().host_count)) {
    return {*std::move(sketched), true};
  }
  LoadedPostures walk{collect_postures(ReaderRecordSource(reader), pool), false};
  if (write == SidecarWrite::after_walk) write_posture_sketch(sidecar, fingerprint, walk.postures);
  return walk;
}

std::vector<HostPosture> ensure_posture_sketch(const std::string& path, std::uint64_t seed,
                                               ThreadPool& pool) {
  const SnapshotReader reader(path, seed);
  return load_postures(reader, path, pool, SidecarWrite::after_walk).postures;
}

}  // namespace opcua_study
