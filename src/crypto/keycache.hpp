// Deterministic RSA key factory with an optional disk cache.
//
// The synthetic Internet carries ~1900 RSA keys (1024/2048/4096 bit).
// Generating them is by far the most expensive step of a full campaign, so
// keys are (a) derived deterministically from (seed, label, bits) — the
// same study config always yields the same corpus — and (b) memoised in a
// small text file so repeated bench/test runs skip generation entirely.
// The cache stores p and q; all derived values (d, CRT parts) are
// recomputed, keeping the file format trivial and diffable.
//
// Thread model: every (label, bits) pair owns an independent Rng stream,
// so generation order — and therefore thread count — cannot change any
// key. prefetch() exploits that to generate a deployment's whole key
// corpus on a worker pool; get() stays safe to call concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "crypto/rsa.hpp"

namespace opcua_study {

class KeyFactory {
 public:
  /// `cache_path` empty → in-memory only. The default path comes from
  /// $OPCUA_STUDY_KEY_CACHE, falling back to ".opcua_study_keycache" in the
  /// working directory.
  explicit KeyFactory(std::uint64_t seed, std::string cache_path = default_cache_path());
  ~KeyFactory();

  KeyFactory(const KeyFactory&) = delete;
  KeyFactory& operator=(const KeyFactory&) = delete;

  /// Deterministic key for (seed, label, bits).
  RsaKeyPair get(const std::string& label, std::size_t bits);

  /// Generate every (label, bits) not yet cached, on `threads` workers
  /// (<= 0: hardware concurrency, 1: inline). Duplicates in `wants` are
  /// deduplicated; entries already cached cost nothing. The resulting
  /// cache state is identical to issuing the same get() calls serially.
  void prefetch(const std::vector<std::pair<std::string, std::size_t>>& wants, int threads = 0);

  std::size_t generated() const;
  std::size_t cache_hits() const;
  /// Persist newly generated entries, merged with this seed's rows other
  /// factories flushed meanwhile; called by the destructor as well.
  /// Writes the whole file to `<path>.tmp` and atomically renames it over
  /// the cache, so a crash mid-flush never clobbers the existing corpus.
  void flush();

  static std::string default_cache_path();

 private:
  /// Adds this seed's cache-file rows that entries_ lacks; `foreign`, when
  /// given, receives every other seed's line verbatim.
  void read_cache(std::vector<std::string>* foreign);
  RsaKeyPair assemble(const Bignum& p, const Bignum& q) const;
  /// The deterministic generation loop for one entry; pure function of
  /// (seed, label, bits) — safe to run on any thread.
  static std::pair<Bignum, Bignum> generate_pq(std::uint64_t seed, const std::string& label,
                                               std::size_t bits);

  std::uint64_t seed_;
  std::string cache_path_;
  mutable std::mutex mu_;  // guards entries_, counters, dirty_
  // (label, bits) -> (p hex, q hex)
  std::map<std::pair<std::string, std::size_t>, std::pair<std::string, std::string>> entries_;
  std::size_t generated_ = 0;
  std::size_t cache_hits_ = 0;
  bool dirty_ = false;
};

}  // namespace opcua_study
