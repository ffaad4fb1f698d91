#include "crypto/keycache.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

std::string KeyFactory::default_cache_path() {
  if (const char* env = std::getenv("OPCUA_STUDY_KEY_CACHE")) return env;
  return ".opcua_study_keycache";
}

KeyFactory::KeyFactory(std::uint64_t seed, std::string cache_path)
    : seed_(seed), cache_path_(std::move(cache_path)) {
  if (!cache_path_.empty()) read_cache(nullptr);
}

void KeyFactory::read_cache(std::vector<std::string>* foreign) {
  std::ifstream in(cache_path_);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::uint64_t file_seed = 0;
    if (!(fields >> file_seed)) continue;
    if (file_seed != seed_) {
      if (foreign != nullptr) foreign->push_back(line);
      continue;
    }
    std::string label, p_hex, q_hex;
    std::size_t bits = 0;
    if (fields >> label >> bits >> p_hex >> q_hex) {
      entries_.try_emplace({label, bits}, std::move(p_hex), std::move(q_hex));
    }
  }
}

KeyFactory::~KeyFactory() { flush(); }

std::size_t KeyFactory::generated() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return generated_;
}

std::size_t KeyFactory::cache_hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cache_hits_;
}

void KeyFactory::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (cache_path_.empty() || !dirty_) return;
  // Preserve other seeds' rows and merge in this seed's rows that another
  // factory flushed since this one loaded the file (the same keys: a key
  // is a pure function of (seed, label, bits)). Then write everything to
  // a temp file and rename it into place — the old in-place truncate lost
  // the entire corpus (every seed's primes) when a run died mid-flush.
  std::vector<std::string> foreign;
  read_cache(&foreign);
  const std::string tmp_path = cache_path_ + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    for (const auto& line : foreign) out << line << '\n';
    for (const auto& [key, pq] : entries_) {
      out << seed_ << ' ' << key.first << ' ' << key.second << ' ' << pq.first << ' ' << pq.second
          << '\n';
    }
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      return;  // keep the old cache intact; stay dirty for the next flush
    }
  }
  if (std::rename(tmp_path.c_str(), cache_path_.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return;
  }
  dirty_ = false;
}

RsaKeyPair KeyFactory::assemble(const Bignum& p_in, const Bignum& q_in) const {
  Bignum p = p_in, q = q_in;
  if (p < q) std::swap(p, q);
  RsaPrivateKey priv;
  priv.p = p;
  priv.q = q;
  priv.n = p * q;
  priv.e = Bignum{65537};
  const Bignum p1 = p - Bignum{1};
  const Bignum q1 = q - Bignum{1};
  priv.d = Bignum::mod_inverse(priv.e, p1 * q1);
  priv.dp = priv.d % p1;
  priv.dq = priv.d % q1;
  priv.qinv = Bignum::mod_inverse(q, p);
  return {priv.public_key(), priv};
}

std::pair<Bignum, Bignum> KeyFactory::generate_pq(std::uint64_t seed, const std::string& label,
                                                  std::size_t bits) {
  Rng rng = Rng(seed).child("rsa-key").child(label).child(std::to_string(bits));
  for (;;) {
    Bignum p = Bignum::generate_prime(rng, bits / 2);
    Bignum q = Bignum::generate_prime(rng, bits / 2);
    if (p == q) continue;
    if ((p - Bignum{1}).mod_u32(65537) == 0 || (q - Bignum{1}).mod_u32(65537) == 0) continue;
    if ((p * q).bit_length() != bits) continue;
    if (p < q) std::swap(p, q);  // cache rows store the normalized order
    return {p, q};
  }
}

RsaKeyPair KeyFactory::get(const std::string& label, std::size_t bits) {
  const auto key = std::make_pair(label, bits);
  {
    std::pair<std::string, std::string> pq_hex;
    bool hit = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (auto it = entries_.find(key); it != entries_.end()) {
        ++cache_hits_;
        obs::add(obs::Metric::key_cache_hits);
        pq_hex = it->second;
        hit = true;
      }
    }
    // Derive the CRT parts (modular inverses) outside the lock so
    // concurrent post-prefetch hitters don't serialize on it.
    if (hit) return assemble(Bignum::from_hex(pq_hex.first), Bignum::from_hex(pq_hex.second));
  }
  // Generate outside the lock — this is the expensive part, and the result
  // is a pure function of (seed, label, bits), so a concurrent get() for
  // the same key produces the identical entry.
  const auto [p, q] = generate_pq(seed_, label, bits);
  const RsaKeyPair pair = assemble(p, q);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (entries_.emplace(key, std::make_pair(p.to_hex(), q.to_hex())).second) {
      ++generated_;
      obs::add(obs::Metric::keys_generated);
      dirty_ = true;
    }
  }
  return pair;
}

void KeyFactory::prefetch(const std::vector<std::pair<std::string, std::size_t>>& wants,
                          int threads) {
  std::vector<std::pair<std::string, std::size_t>> missing;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::set<std::pair<std::string, std::size_t>> seen;
    for (const auto& want : wants) {
      if (entries_.contains(want)) continue;
      if (seen.insert(want).second) missing.push_back(want);
    }
  }
  if (missing.empty()) return;
  const ThreadPool pool(threads);
  std::vector<std::pair<std::string, std::string>> results(missing.size());
  pool.parallel_for(missing.size(), [&](std::size_t i) {
    const auto [p, q] = generate_pq(seed_, missing[i].first, missing[i].second);
    results[i] = {p.to_hex(), q.to_hex()};
  });
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    if (entries_.emplace(missing[i], std::move(results[i])).second) {
      ++generated_;
      obs::add(obs::Metric::keys_generated);
      dirty_ = true;
    }
  }
}

}  // namespace opcua_study
