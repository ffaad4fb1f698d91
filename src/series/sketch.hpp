// Posture sketch sidecars — the incremental-series substrate.
//
// A sketch is the collect_postures() output of one recorded campaign's
// final measurement, serialized next to the snapshot file it was cut
// from. Loading a sketch replaces the posture pass (decode every record
// of the final measurement) with a small sequential read: appending
// campaign N+1 to an N-member series then costs one posture pass over
// the new member plus one match, instead of re-walking all N+1 members.
//
// Staleness contract. Every sketch is stamped with the snapshot's
// structural fingerprint (SnapshotReader::file_fingerprint) at write
// time. A reader validates that stamp before anything else:
//   - sidecar absent            -> caller falls back to a posture pass;
//   - fingerprint mismatch      -> SnapshotError naming BOTH paths. A
//     stale sketch is never silently served and never silently ignored —
//     ignoring it would hide that a snapshot was swapped underneath its
//     derived data;
//   - short file / bad checksum -> SnapshotError naming the sidecar;
//   - a protocol id the build does not know, flag bits above bit 2, or
//     a mode/policy bucket above 2 -> SnapshotError naming the sidecar,
//     the posture index, the field and its value. The checksum is no
//     MAC, so these pass it; unchecked, a bucket would index the
//     transition tables out of bounds.
// Sketch contents are validated against the snapshot's final host count,
// and the payload carries its own hash64 checksum, so a truncated or
// bit-flipped sidecar fails loudly instead of feeding the matcher
// garbage postures.
//
// Format (little-endian, version 1):
//   u32 magic 'PSKH'   u32 version=1
//   u64 snapshot_fingerprint
//   u64 posture_count
//   per posture: u32 ip  u16 port  u8 protocol  u8 flags
//                (bit0 supports_deprecated, bit1 anonymous, bit2
//                 deficient)  u32 asn  u64 uri_hash  u8 mode_bucket
//                u8 policy_bucket  u16 fp_count  u64 fp*
//   u64 payload_checksum (hash64 over every byte after the header)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "series/matcher.hpp"

namespace opcua_study {

/// Sidecar path convention: `<snapshot path>.sketch`.
std::string posture_sketch_path(const std::string& snapshot_path);

/// Serialize `postures` (a campaign's final-measurement collect_postures
/// output, record-ordered) to `sketch_path`, stamped with
/// `snapshot_fingerprint`. Writes `<path>.tmp` then renames, so an
/// interrupted write never leaves a half-sketch that could load.
void write_posture_sketch(const std::string& sketch_path, std::uint64_t snapshot_fingerprint,
                          const std::vector<HostPosture>& postures);

/// Load the sketch at `sketch_path` for the snapshot at `snapshot_path`
/// whose structural fingerprint is `snapshot_fingerprint` and whose final
/// measurement holds `expected_postures` records.
///
/// Returns nullopt when no sidecar exists (callers run the posture pass).
/// Throws SnapshotError — naming both the sidecar and the snapshot — when
/// a sidecar exists but is stale (fingerprint mismatch), malformed, or
/// inconsistent with the snapshot's host count: a present-but-wrong
/// sketch must never be served and must never be silently skipped.
std::optional<std::vector<HostPosture>> read_posture_sketch(const std::string& sketch_path,
                                                            const std::string& snapshot_path,
                                                            std::uint64_t snapshot_fingerprint,
                                                            std::uint64_t expected_postures);

/// Ensure the snapshot at `path` (opened with `seed`) has a valid sketch
/// sidecar: loads and returns an existing valid one, otherwise runs the
/// posture pass on `pool` and writes the sidecar. Throws SnapshotError on
/// a stale sidecar (see read_posture_sketch) — delete the sidecar to
/// regenerate it deliberately.
std::vector<HostPosture> ensure_posture_sketch(const std::string& path, std::uint64_t seed,
                                               ThreadPool& pool);

}  // namespace opcua_study
