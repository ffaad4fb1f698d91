// The calibrated population: every count in this file is derived from the
// paper's published numbers (see DESIGN.md §4 for the cohort algebra).
//
// Verification happens in two places: tests/test_population.cpp asserts the
// plan's marginals against the paper, and the end-to-end benches assert the
// same numbers *as measured by the scanner over the wire*.
#include "population/plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "population/profiles.hpp"
#include "util/rng.hpp"

namespace opcua_study {

namespace {

using MSM = MessageSecurityMode;
using SP = SecurityPolicy;
using HA = HashAlgorithm;

// Mode sets solved from Fig. 3 (support / least / most secure).
const std::vector<MSM> kModesN = {MSM::None};
const std::vector<MSM> kModesE = {MSM::SignAndEncrypt};
const std::vector<MSM> kModesSE = {MSM::Sign, MSM::SignAndEncrypt};
const std::vector<MSM> kModesNS = {MSM::None, MSM::Sign};
const std::vector<MSM> kModesNE = {MSM::None, MSM::SignAndEncrypt};
const std::vector<MSM> kModesNSE = {MSM::None, MSM::Sign, MSM::SignAndEncrypt};

struct CertClass {
  bool present = true;
  HA hash = HA::sha256;
  std::size_t bits = 2048;
};
const CertClass kNoCert{false, HA::sha1, 0};
const CertClass kMd5_1024{true, HA::md5, 1024};
const CertClass kSha1_1024{true, HA::sha1, 1024};
const CertClass kSha1_2048{true, HA::sha1, 2048};
const CertClass kSha256_2048{true, HA::sha256, 2048};
const CertClass kSha256_4096{true, HA::sha256, 4096};

struct Check {
  const char* what;
  long expected;
  long actual;
};

void verify(std::vector<Check> checks) {
  for (const auto& c : checks) {
    if (c.expected != c.actual) {
      throw std::logic_error(std::string("population calibration broken: ") + c.what +
                             " expected " + std::to_string(c.expected) + " got " +
                             std::to_string(c.actual));
    }
  }
}

}  // namespace

PopulationPlan build_population_plan(std::uint64_t seed) {
  Rng rng = Rng(seed).child("population");
  PopulationPlan plan;

  // ---------------------------------------------------------------- certs --
  // Reuse groups (§5.3): G0 is the 385-host / 24-AS distributor certificate;
  // G1/G2 its 9-host / 8-AS and 6-host / 5-AS siblings (same manufacturer);
  // G3..G8 are six 3-host clusters; G9..G20 twelve 2-host pairs (below the
  // paper's >=3 reporting threshold, but present in real data).
  plan.reuse_groups.push_back({0, HA::sha1, 2048, 24, "Bachmann electronic"});
  plan.reuse_groups.push_back({1, HA::sha256, 2048, 8, "Bachmann electronic"});
  plan.reuse_groups.push_back({2, HA::sha256, 2048, 5, "Bachmann electronic"});
  for (int g = 3; g < 9; ++g) plan.reuse_groups.push_back({g, HA::sha1, 1024, 2, "EnergoTec"});
  for (int g = 9; g < 21; ++g) plan.reuse_groups.push_back({g, HA::sha1, 1024, 1, "ParkView"});

  // ------------------------------------------------------- server cohorts --
  // One emit per (cohort, mode-set, cert-class) slice; DESIGN.md §4 table.
  struct Slice {
    const char* cohort;
    int count;
    std::vector<SP> policies;
    const std::vector<MSM>* modes;
    CertClass cert;
  };
  const std::vector<SP> pN = {SP::None};
  const std::vector<SP> pC1 = {SP::Basic128Rsa15, SP::Basic256, SP::Basic256Sha256};
  const std::vector<SP> pC2 = {SP::Basic256, SP::Basic256Sha256};
  const std::vector<SP> pC2b = {SP::Basic256, SP::Basic256Sha256, SP::Aes256Sha256RsaPss};
  const std::vector<SP> pC3a = {SP::Basic256Sha256, SP::Aes256Sha256RsaPss};
  const std::vector<SP> pC3b = {SP::Basic256Sha256};
  const std::vector<SP> pC4 = {SP::None, SP::Basic128Rsa15};
  const std::vector<SP> pC5a = {SP::None, SP::Basic128Rsa15, SP::Basic256};
  const std::vector<SP> pC5b = {SP::None, SP::Basic256};
  const std::vector<SP> pC6a = {SP::None, SP::Basic128Rsa15, SP::Basic256,
                                SP::Aes128Sha256RsaOaep, SP::Basic256Sha256};
  const std::vector<SP> pC6b = {SP::None, SP::Basic128Rsa15, SP::Basic256, SP::Basic256Sha256};
  const std::vector<SP> pC6c = {SP::None, SP::Basic256, SP::Basic256Sha256};
  const std::vector<SP> pC7 = {SP::None, SP::Basic256Sha256};

  const std::vector<Slice> slices = {
      // C0: None-only hosts (270). 40 send no certificate at all.
      {"C0.nocert", 40, pN, &kModesN, kNoCert},
      {"C0.md5", 30, pN, &kModesN, kMd5_1024},
      {"C0.sha1_1024", 130, pN, &kModesN, kSha1_1024},
      {"C0.sha1_2048", 40, pN, &kModesN, kSha1_2048},
      {"C0.sha256", 30, pN, &kModesN, kSha256_2048},
      // C1 (13): no None; least=D1, max=S2; weak certs (part of the 409).
      {"C1", 13, pC1, &kModesE, kSha1_2048},
      // C2a (44): least=D2, max=S2; clean.
      {"C2a.se", 28, pC2, &kModesSE, kSha256_2048},
      {"C2a.e", 16, pC2, &kModesE, kSha256_2048},
      // C2b (6): least=D2, max=S3; clean.
      {"C2b", 6, pC2b, &kModesE, kSha256_2048},
      // C3a (2): least=S2, max=S3; clean.
      {"C3a", 2, pC3a, &kModesE, kSha256_2048},
      // C3b (14): the "enforcers" (S2 only); clean; 8 carry 4096-bit keys.
      {"C3b.2048", 6, pC3b, &kModesE, kSha256_2048},
      {"C3b.4096", 8, pC3b, &kModesE, kSha256_4096},
      // C4 (24): max=D1. MD5 certs are weaker than even D1 announces
      // (part of the 591 "weaker in practice", unannotated in Fig. 4).
      {"C4.md5", 20, pC4, &kModesNS, kMd5_1024},   // 1 host gets {N,S}
      {"C4.sha1", 4, pC4, &kModesNE, kSha1_1024},
      // C5a (249): max=D2.
      {"C5a.md5", 160, pC5a, &kModesNSE, kMd5_1024},
      {"C5a.sha1_1024", 45, pC5a, &kModesNSE, kSha1_1024},
      {"C5a.sha1_2048", 44, pC5a, &kModesNSE, kSha1_2048},
      // C5b (7): {N,D2}; 5 hosts carry 4096-bit keys (Fig. 4's "↑5").
      {"C5b.strong", 5, pC5b, &kModesNE, kSha256_4096},
      {"C5b.md5", 2, pC5b, &kModesNE, kMd5_1024},
      // C6a (10): the only S1 announcers; 7 weak (Fig. 4's "↓7").
      {"C6a.weak", 7, pC6a, &kModesNSE, kSha1_1024},
      {"C6a.strong", 3, pC6a, &kModesNSE, kSha256_2048},
      // C6b (377): the S2 mainstream. 72 SHA-256 certs (with C6a.strong
      // = the 75 "too strong for D1", Fig. 4's "↑75").
      {"C6b.good", 72, pC6b, &kModesNSE, kSha256_2048},
      {"C6b.sha1_1024", 59, pC6b, &kModesNE, kSha1_1024},
      {"C6b.sha1_2048", 246, pC6b, &kModesNSE, kSha1_2048},
      // C6c (14): {N,D2,S2}; clean.
      {"C6c", 14, pC6c, &kModesNE, kSha256_2048},
      // C6d (42): {N,D1,D2,S2}; SHA1/2048 (part of 409 and of group G0).
      {"C6d", 42, pC6b, &kModesNSE, kSha1_2048},
      // C7 (42): {N,S2} with SHA-1 certs (part of the 409).
      {"C7", 42, pC7, &kModesNE, kSha1_1024},
  };

  const WeeklyTargets targets;
  int index = 0;
  for (const auto& slice : slices) {
    for (int i = 0; i < slice.count; ++i) {
      HostPlan host;
      host.index = index++;
      host.cohort = slice.cohort;
      host.policies = slice.policies;
      host.modes = *slice.modes;
      host.certificate.present = slice.cert.present;
      host.certificate.signature_hash = slice.cert.hash;
      host.certificate.key_bits = slice.cert.bits;
      plan.hosts.push_back(std::move(host));
    }
  }
  // C4.md5: exactly one host carries the rare {None, Sign} mode set; the
  // other 19 use {None, SignAndEncrypt}.
  {
    int fixed = 0;
    for (auto& host : plan.hosts) {
      if (host.cohort == "C4.md5" && fixed++ > 0) host.modes = kModesNE;
    }
  }
  // C6b.sha1_1024 advertises {N,E}; rebalance mode sets so that
  // {N,S,E} = 559 and {N,E} = 205 overall: C6b.sha1_2048 contributes 246 to
  // {N,S,E}; 60 of C6b.good move to {N,E}.
  {
    int moved = 0;
    for (auto& host : plan.hosts) {
      if (host.cohort == "C6b.good" && moved < 60) {
        host.modes = kModesNE;
        ++moved;
      }
    }
  }

  auto hosts_in = [&plan](const std::string& prefix) {
    std::vector<HostPlan*> out;
    for (auto& host : plan.hosts) {
      if (host.cohort.rfind(prefix, 0) == 0) out.push_back(&host);
    }
    return out;
  };

  // Mode-set marginal checks (Fig. 3 left).
  {
    long support_n = 0, support_s = 0, support_e = 0, least_s = 0, least_e = 0, most_n = 0,
         most_s = 0;
    for (const auto& host : plan.hosts) {
      const bool n = std::count(host.modes.begin(), host.modes.end(), MSM::None) > 0;
      const bool s = std::count(host.modes.begin(), host.modes.end(), MSM::Sign) > 0;
      const bool e = std::count(host.modes.begin(), host.modes.end(), MSM::SignAndEncrypt) > 0;
      support_n += n;
      support_s += s;
      support_e += e;
      if (!n && s) ++least_s;
      if (!n && !s && e) ++least_e;
      if (!s && !e) ++most_n;
      if (s && !e) ++most_s;
    }
    verify({{"hosts", 1114, static_cast<long>(plan.hosts.size())},
            {"mode support None", 1035, support_n},
            {"mode support Sign", 588, support_s},
            {"mode support SignAndEncrypt", 843, support_e},
            {"mode least Sign", 28, least_s},
            {"mode least SignAndEncrypt", 51, least_e},
            {"mode most None", 270, most_n},
            {"mode most Sign", 1, most_s}});
  }

  // ------------------------------------------------------ reuse groups ----
  // G0 = every SHA1/2048 host (385 by construction: C0 40 + C1 13 +
  // C5a 44 + C6b 246 + C6d 42).
  {
    long g0 = 0;
    for (auto& host : plan.hosts) {
      if (host.certificate.present && host.certificate.signature_hash == HA::sha1 &&
          host.certificate.key_bits == 2048) {
        host.certificate.reuse_group = 0;
        ++g0;
      }
    }
    verify({{"reuse group G0", 385, g0}});
  }
  // G1 (9) and G2 (6): 5 "otherwise configured securely" hosts (C6b.good)
  // plus 10 None-only hosts with SHA-256 certs.
  {
    auto good = hosts_in("C6b.good");
    auto c0sha256 = hosts_in("C0.sha256");
    for (int i = 0; i < 4; ++i) good[static_cast<std::size_t>(i)]->certificate.reuse_group = 1;
    good[4]->certificate.reuse_group = 2;
    for (int i = 0; i < 5; ++i) c0sha256[static_cast<std::size_t>(i)]->certificate.reuse_group = 1;
    for (int i = 5; i < 10; ++i) c0sha256[static_cast<std::size_t>(i)]->certificate.reuse_group = 2;
  }
  // G3..G8 (six 3-host groups) and G9..G20 (twelve 2-host pairs) from the
  // None-only SHA1/1024 pool.
  {
    auto pool = hosts_in("C0.sha1_1024");
    std::size_t cursor = 0;
    for (int g = 3; g < 9; ++g) {
      for (int i = 0; i < 3; ++i) pool[cursor++]->certificate.reuse_group = g;
    }
    for (int g = 9; g < 21; ++g) {
      for (int i = 0; i < 2; ++i) pool[cursor++]->certificate.reuse_group = g;
    }
  }

  // ------------------------------------------------- Table 2 assignment ----
  // Reconciled Table 2 (the printed column totals 493/541/80 are exact; we
  // set the credentials-only row to 467/21 so rows sum to 1114 — see
  // DESIGN.md, "Paper reproduction").
  struct RowSpec {
    std::vector<UserTokenType> tokens;
    int prod, test, uncl, auth, sc;
  };
  using UT = UserTokenType;
  const RowSpec kR1{{UT::Anonymous}, 116, 8, 5, 9, 1};
  const RowSpec kR2{{UT::UserName}, 0, 0, 0, 467, 21};
  const RowSpec kR3{{UT::Anonymous, UT::UserName}, 168, 20, 134, 38, 5};
  const RowSpec kR4{{UT::UserName, UT::Certificate}, 0, 0, 0, 4, 7};
  const RowSpec kR5{{UT::Anonymous, UT::UserName, UT::Certificate}, 11, 14, 17, 17, 3};
  const RowSpec kR6{{UT::UserName, UT::Certificate, UT::IssuedToken}, 0, 0, 0, 0, 43};
  const RowSpec kR7{{UT::Anonymous, UT::UserName, UT::Certificate, UT::IssuedToken}, 0, 0, 0, 6, 0};

  struct Cell {
    const RowSpec* row;
    PlannedOutcome outcome;
    PlannedClass cls;
    int count;
  };
  auto apply_cell = [](std::vector<HostPlan*>& pool, std::size_t& cursor, const Cell& cell) {
    for (int i = 0; i < cell.count; ++i) {
      if (cursor >= pool.size()) throw std::logic_error("table-2 pool exhausted");
      HostPlan* host = pool[cursor++];
      host->tokens = cell.row->tokens;
      host->outcome = cell.outcome;
      host->classification = cell.cls;
      if (cell.outcome == PlannedOutcome::channel_rejected) {
        host->trust_all_client_certs = false;
      } else if (cell.outcome == PlannedOutcome::auth_rejected && cell.row->tokens.size() == 1 &&
                 cell.row->tokens[0] == UT::Anonymous) {
        // anonymous-only yet rejecting: the paper's "faulty or incomplete
        // endpoint configuration" hosts.
        host->reject_all_sessions = true;
      } else if (cell.outcome == PlannedOutcome::auth_rejected) {
        bool anon = false;
        for (auto t : cell.row->tokens) anon |= t == UT::Anonymous;
        if (anon) host->reject_anonymous_sessions = true;
      }
    }
  };

  using PO = PlannedOutcome;
  using PC = PlannedClass;

  // (1) Clean no-None hosts: all 66 offer anonymous (the paper's "71
  // servers that otherwise force clients to communicate securely", with the
  // 5 weak C1 hosts below) and are accessible-but-unclassified.
  {
    auto pool = hosts_in("C2a");
    std::size_t cursor = 0;
    apply_cell(pool, cursor, {&kR3, PO::accessible, PC::unclassified, 44});
    pool = hosts_in("C3b");
    cursor = 0;
    apply_cell(pool, cursor, {&kR3, PO::accessible, PC::unclassified, 14});
    pool = hosts_in("C2b");
    cursor = 0;
    apply_cell(pool, cursor, {&kR5, PO::accessible, PC::unclassified, 6});
    pool = hosts_in("C3a");
    cursor = 0;
    apply_cell(pool, cursor, {&kR5, PO::accessible, PC::unclassified, 2});
  }
  // (2) C1: 5 anonymous but certificate-rejected (R3's sc cell), 8 in the
  // credentials-only row.
  {
    auto pool = hosts_in("C1");
    std::size_t cursor = 0;
    apply_cell(pool, cursor, {&kR3, PO::channel_rejected, PC::not_applicable, 5});
    apply_cell(pool, cursor, {&kR2, PO::auth_rejected, PC::not_applicable, 8});
  }
  // (3) Clean None-containing hosts (89): never anonymous.
  {
    auto pool = hosts_in("C6b.good");
    // Skip the 5 reuse-group members (they live in R2 below, "otherwise
    // configured securely", §5.3).
    std::vector<HostPlan*> reuse, rest;
    for (auto* h : pool) (h->certificate.reuse_group >= 0 ? reuse : rest).push_back(h);
    std::size_t cursor = 0;
    apply_cell(rest, cursor, {&kR6, PO::channel_rejected, PC::not_applicable, 43});
    apply_cell(rest, cursor, {&kR2, PO::auth_rejected, PC::not_applicable, 24});
    cursor = 0;
    apply_cell(reuse, cursor, {&kR2, PO::auth_rejected, PC::not_applicable, 5});
    auto c6c = hosts_in("C6c");
    cursor = 0;
    apply_cell(c6c, cursor, {&kR4, PO::auth_rejected, PC::not_applicable, 4});
    apply_cell(c6c, cursor, {&kR4, PO::channel_rejected, PC::not_applicable, 7});
    apply_cell(c6c, cursor, {&kR2, PO::auth_rejected, PC::not_applicable, 3});
    auto c6astrong = hosts_in("C6a.strong");
    cursor = 0;
    apply_cell(c6astrong, cursor, {&kR2, PO::auth_rejected, PC::not_applicable, 3});
  }
  // (4) Deficient anonymous hosts: 497 across the anonymous rows' remaining
  // cells + 4 certificate-rejected (R1's 1 + R5's 3) + 21 R2 sc-rejects.
  {
    auto c6bweak = hosts_in("C6b.sha1");  // matches sha1_1024 + sha1_2048
    std::size_t cursor = 0;
    apply_cell(c6bweak, cursor, {&kR1, PO::channel_rejected, PC::not_applicable, 1});
    apply_cell(c6bweak, cursor, {&kR5, PO::channel_rejected, PC::not_applicable, 3});
    apply_cell(c6bweak, cursor, {&kR2, PO::channel_rejected, PC::not_applicable, 21});
    apply_cell(c6bweak, cursor, {&kR3, PO::accessible, PC::production, 60});
    apply_cell(c6bweak, cursor, {&kR3, PO::auth_rejected, PC::not_applicable, 6});
    // Remaining C6b.weak hosts (214): credentials-only.
    const int c6b_left = static_cast<int>(c6bweak.size() - cursor);
    apply_cell(c6bweak, cursor, {&kR2, PO::auth_rejected, PC::not_applicable, c6b_left});
  }
  {
    // C0: 51 EnergoTec production systems + the test fleet + misc cells.
    auto c0 = hosts_in("C0");
    std::size_t cursor = 0;
    apply_cell(c0, cursor, {&kR1, PO::accessible, PC::production, 116});
    apply_cell(c0, cursor, {&kR1, PO::accessible, PC::test, 8});
    apply_cell(c0, cursor, {&kR1, PO::accessible, PC::unclassified, 5});
    apply_cell(c0, cursor, {&kR1, PO::auth_rejected, PC::not_applicable, 9});
    apply_cell(c0, cursor, {&kR3, PO::accessible, PC::test, 20});
    apply_cell(c0, cursor, {&kR3, PO::accessible, PC::unclassified, 50});
    apply_cell(c0, cursor, {&kR3, PO::auth_rejected, PC::not_applicable, 32});
    apply_cell(c0, cursor, {&kR2, PO::auth_rejected, PC::not_applicable,
                            static_cast<int>(c0.size() - cursor)});
  }
  {
    // C5a: the production-heavy deprecated fleet fills the remaining
    // anonymous cells (R3 prod/uncl, all of R5's deficient cells, R7).
    auto c5a = hosts_in("C5a");
    std::size_t cursor = 0;
    apply_cell(c5a, cursor, {&kR3, PO::accessible, PC::production, 108});
    apply_cell(c5a, cursor, {&kR3, PO::accessible, PC::unclassified, 26});
    apply_cell(c5a, cursor, {&kR5, PO::accessible, PC::production, 11});
    apply_cell(c5a, cursor, {&kR5, PO::accessible, PC::test, 14});
    apply_cell(c5a, cursor, {&kR5, PO::accessible, PC::unclassified, 9});
    apply_cell(c5a, cursor, {&kR5, PO::auth_rejected, PC::not_applicable, 17});
    apply_cell(c5a, cursor, {&kR7, PO::auth_rejected, PC::not_applicable, 6});
    apply_cell(c5a, cursor, {&kR2, PO::auth_rejected, PC::not_applicable,
                             static_cast<int>(c5a.size() - cursor)});
  }
  {
    // Everything else is credentials-only (the paper's dominant row).
    for (const char* cohort : {"C7", "C6d", "C6a.weak", "C4", "C5b"}) {
      auto pool = hosts_in(cohort);
      std::size_t cursor = 0;
      apply_cell(pool, cursor,
                 {&kR2, PO::auth_rejected, PC::not_applicable, static_cast<int>(pool.size())});
    }
  }

  // Table-2 marginal self-checks.
  {
    long accessible = 0, auth = 0, sc = 0, anon = 0, anon_no_none = 0, prod = 0, test = 0,
         uncl = 0;
    for (const auto& host : plan.hosts) {
      if (host.tokens.empty()) throw std::logic_error("host without tokens: " + host.cohort);
      switch (host.outcome) {
        case PO::accessible: ++accessible; break;
        case PO::auth_rejected: ++auth; break;
        case PO::channel_rejected: ++sc; break;
      }
      if (host.anonymous_offered()) {
        ++anon;
        if (!host.offers_none_mode()) ++anon_no_none;
      }
      switch (host.classification) {
        case PC::production: ++prod; break;
        case PC::test: ++test; break;
        case PC::unclassified: ++uncl; break;
        case PC::not_applicable: break;
      }
    }
    verify({{"accessible", 493, accessible},
            {"auth rejected", 541, auth},
            {"channel rejected", 80, sc},
            {"anonymous offered", 572, anon},
            {"anonymous on no-None hosts", 71, anon_no_none},
            {"production", 295, prod},
            {"test systems", 42, test},
            {"unclassified", 156, uncl}});
  }

  // ------------------------------------------ address-space shapes (Fig 7) --
  {
    Rng shape = rng.child("shapes");
    std::vector<HostPlan*> accessible;
    for (auto& host : plan.hosts) {
      if (host.outcome == PO::accessible) accessible.push_back(&host);
    }
    verify({{"accessible hosts for shapes", 493, static_cast<long>(accessible.size())}});
    for (std::size_t i = 0; i < accessible.size(); ++i) {
      HostPlan* host = accessible[i];
      host->variable_count = static_cast<int>(shape.range(30, 220));
      host->method_count = static_cast<int>(shape.range(4, 24));
      // Read: 90% of hosts expose > 97% of nodes (Fig. 7).
      host->readable_fraction =
          i < 444 ? 0.97 + 0.03 * shape.real() : 0.20 + 0.60 * shape.real();
      // Write: 33% of hosts allow anonymous writes to > 10% of nodes.
      host->writable_fraction = i % 3 == 0 && (493 - static_cast<int>(i)) / 3 + 163 > 164
                                    ? 0.0
                                    : 0.0;  // placeholder, set below
      // Execute: 61% of hosts allow > 86% of functions.
      host->executable_fraction =
          i < 301 ? 0.86 + 0.14 * shape.real() : 0.30 * shape.real();
    }
    // Writable: first 163 accessible hosts get > 10%, the rest below.
    for (std::size_t i = 0; i < accessible.size(); ++i) {
      accessible[i]->writable_fraction =
          i < 163 ? 0.12 + 0.45 * shape.real() : 0.08 * shape.real();
    }
    // Shuffle which hosts carry which fractions (decorrelate from cohorts)
    // by rotating the assignment deterministically.
    // (Kept simple: the CDF shape is what Fig. 7 reports.)
  }

  // --------------------------------------------------- manufacturers -------
  for (auto& host : plan.hosts) {
    if (host.certificate.reuse_group >= 0 && host.certificate.reuse_group <= 2) {
      host.manufacturer = "Bachmann";
    }
  }
  {
    // Bachmann: 385 + 15 reuse hosts + 6 extras = 406 (Fig. 2).
    int extras = 6;
    for (auto& host : plan.hosts) {
      if (extras > 0 && host.cohort == "C5a.md5" && host.manufacturer.empty()) {
        host.manufacturer = "Bachmann";
        --extras;
      }
    }
    // Beckhoff: 112 = C6b.sha1_1024 (59) + C6a (10) + 43 C5a.md5.
    int beckhoff_c5a = 43;
    for (auto& host : plan.hosts) {
      if (!host.manufacturer.empty()) continue;
      if (host.cohort == "C6b.sha1_1024" || host.cohort.rfind("C6a", 0) == 0) {
        host.manufacturer = "Beckhoff";
      } else if (beckhoff_c5a > 0 && host.cohort == "C5a.md5") {
        host.manufacturer = "Beckhoff";
        --beckhoff_c5a;
      }
    }
    // Wago: 78 = C2a (44) + C6c (14) + C3b (14) + C2b (6).
    for (auto& host : plan.hosts) {
      if (!host.manufacturer.empty()) continue;
      if (host.cohort.rfind("C2a", 0) == 0 || host.cohort == "C6c" ||
          host.cohort.rfind("C3b", 0) == 0 || host.cohort == "C2b") {
        host.manufacturer = "Wago";
      }
    }
    // EnergoTec: the all-None manufacturer of §B.1.1 (51 C0 hosts, all
    // accessible production systems) — minus those already in reuse pairs.
    int energo = 51;
    for (auto& host : plan.hosts) {
      if (!host.manufacturer.empty() || energo == 0) continue;
      if (host.cohort.rfind("C0", 0) == 0 && host.outcome == PO::accessible &&
          host.classification == PC::production) {
        host.manufacturer = "EnergoTec";
        --energo;
      }
    }
    // FreeOpcUa: 35 of the 42 test systems.
    int free_opcua = 35;
    for (auto& host : plan.hosts) {
      if (!host.manufacturer.empty() || free_opcua == 0) continue;
      if (host.classification == PC::test) {
        host.manufacturer = "FreeOpcUa";
        --free_opcua;
      }
    }
    // Unified Automation: remaining clean C6b/C6a hosts.
    for (auto& host : plan.hosts) {
      if (!host.manufacturer.empty()) continue;
      if (host.cohort == "C6b.good" || host.cohort == "C6a.strong") {
        host.manufacturer = "Unified Automation";
      }
    }
    // open62541: C7 + C3a + C1; B&R: C6d + C4; Siemens: 85 C5a; other: rest.
    int siemens = 85;
    for (auto& host : plan.hosts) {
      if (!host.manufacturer.empty()) continue;
      if (host.cohort == "C7" || host.cohort == "C3a" || host.cohort == "C1") {
        host.manufacturer = "open62541";
      } else if (host.cohort == "C6d" || host.cohort.rfind("C4", 0) == 0) {
        host.manufacturer = "B&R";
      } else if (siemens > 0 && host.cohort.rfind("C5a", 0) == 0) {
        host.manufacturer = "Siemens";
        --siemens;
      } else {
        host.manufacturer = "other";
      }
    }
  }
  {
    long bachmann = 0, beckhoff = 0, wago = 0;
    for (const auto& host : plan.hosts) {
      bachmann += host.manufacturer == "Bachmann";
      beckhoff += host.manufacturer == "Beckhoff";
      wago += host.manufacturer == "Wago";
    }
    verify({{"Bachmann", 406, bachmann}, {"Beckhoff", 112, beckhoff}, {"Wago", 78, wago}});
  }

  // Identity strings derived from the manufacturer cluster.
  {
    int serial = 1000;
    for (auto& host : plan.hosts) {
      const auto& profile = profiles::manufacturer(host.manufacturer);
      host.application_uri = profile.uri_prefix + "device-" + std::to_string(serial);
      host.product_uri = profile.product_uri;
      host.application_name = host.manufacturer + " OPC UA Server " + std::to_string(serial);
      ++serial;
    }
  }

  // ----------------------------------------- non-default-port servers ----
  // 45 servers only reachable through discovery references (Fig. 2's
  // "follow references / non-default port" annotation). Stable,
  // full-presence hosts so the certificate ledger below stays exact.
  {
    auto pool = hosts_in("C5a.md5");
    int moved = 0;
    for (std::size_t i = pool.size(); i-- > 0 && moved < 45;) {
      pool[i]->port = 48010;
      pool[i]->via_reference_only = true;
      ++moved;
    }
    verify({{"non-default-port hosts", 45, moved}});
  }

  // ------------------------------------------------ longitudinal ledger ----
  // Constants derived in DESIGN.md §4: 224 dual-certificate hosts, 461
  // ephemeral-certificate hosts (234 SHA-1-classed), 108 departing hosts,
  // 137 late arrivals into reuse group G0, 84 renewals.
  {
    // Ephemerals: dynamic-IP hosts regenerating their self-signed
    // certificate every measurement (same key). SHA-1 part: 234 of the
    // SHA1/1024 hosts outside reuse groups.
    int eph_sha1 = 234;
    for (auto& host : plan.hosts) {
      if (eph_sha1 == 0) break;
      if (host.via_reference_only) continue;
      if (host.certificate.present && host.certificate.reuse_group < 0 &&
          host.certificate.signature_hash == HA::sha1 && host.certificate.key_bits == 1024) {
        host.certificate.ephemeral = true;
        host.dynamic_ip = true;
        --eph_sha1;
      }
    }
    verify({{"sha1 ephemerals placed", 0, eph_sha1}});
    // Non-SHA-1 part: 227 from the MD5, C0 SHA-256 and clean SHA-256 pools.
    int eph_other = 227;
    for (auto& host : plan.hosts) {
      if (eph_other == 0) break;
      if (host.via_reference_only) continue;
      if (!host.certificate.present || host.certificate.reuse_group >= 0 ||
          host.certificate.ephemeral) {
        continue;
      }
      const bool md5 = host.certificate.signature_hash == HA::md5;
      const bool eligible_sha256 = host.cohort == "C0.sha256" || host.cohort == "C6c" ||
                                   host.cohort.rfind("C2", 0) == 0 ||
                                   host.cohort.rfind("C3", 0) == 0;
      if (md5 || eligible_sha256) {
        host.certificate.ephemeral = true;
        host.dynamic_ip = true;
        --eph_other;
      }
    }
    verify({{"other ephemerals placed", 0, eph_other}});
  }
  {
    // Dual certificates: 224 stable hosts present a second (SHA1/1024,
    // NotBefore 2017-2018) certificate on one endpoint.
    int duals = 224;
    Rng dual_rng = rng.child("dual");
    for (auto& host : plan.hosts) {
      if (duals == 0) break;
      if (!host.certificate.present || host.certificate.ephemeral || host.via_reference_only) {
        continue;
      }
      host.certificate.dual_certificate = true;
      host.certificate.dual_not_before_days = days_from_civil(
          {2017 + static_cast<int>(dual_rng.below(2)), 1 + static_cast<unsigned>(dual_rng.below(12)), 1 + static_cast<unsigned>(dual_rng.below(28))});
      --duals;
    }
    verify({{"dual certs placed", 0, duals}});
  }
  {
    // NotBefore for stable primary certificates. SHA-1 singles: 8 in
    // 2017-2018, 2 post-2019, 1 pre-2017; group certificates: 2017-2018;
    // everything else (MD5 / SHA-256): 2012-2019.
    Rng nb = rng.child("notbefore");
    int sha1_single_seen = 0;
    for (auto& host : plan.hosts) {
      if (!host.certificate.present) continue;
      auto& cert = host.certificate;
      if (cert.ephemeral) continue;  // stamped per measurement by the deployer
      if (cert.reuse_group >= 0) {
        cert.not_before_days =
            days_from_civil({2017, 6, 1}) + static_cast<std::int64_t>(cert.reuse_group);
      } else if (cert.signature_hash == HA::sha1) {
        // 11 stable SHA-1 singles: 1 pre-2017 (the later downgrade host),
        // 8 in 2017-2018, 2 post-2019 — the §5.5 NotBefore ledger.
        if (sha1_single_seen == 0) {
          cert.not_before_days = days_from_civil({2015, 4, 10});
        } else if (sha1_single_seen < 9) {
          cert.not_before_days = days_from_civil(
              {2017 + static_cast<int>(nb.below(2)), 1 + static_cast<unsigned>(nb.below(12)), 5});
        } else {
          cert.not_before_days = days_from_civil({2019, 3, 1 + static_cast<unsigned>(nb.below(20))});
        }
        ++sha1_single_seen;
      } else {
        cert.not_before_days = days_from_civil(
            {2012 + static_cast<int>(nb.below(8)), 1 + static_cast<unsigned>(nb.below(12)), 3});
      }
    }
    verify({{"stable sha1 singles", 11, sha1_single_seen}});
  }
  {
    // Renewals (84): 7 SHA-1→SHA-256 upgrades (week 1), 1 downgrade
    // (week 4), 48 dual-certificate SHA-1 refreshes, 28 SHA-256 refreshes;
    // 9 coincide with a SoftwareVersion update.
    int upgrades = 7, downgrade = 1, dual_refresh = 48, sha256_refresh = 28;
    // Software-update coincidences (9) must be *observable*: the scanner
    // only reads SoftwareVersion on accessible hosts, so the flag goes to
    // accessible renewal hosts.
    int sw_updates = 9;
    int week_cycle = 0;
    for (auto& host : plan.hosts) {
      if (host.certificate.ephemeral || !host.certificate.present || host.via_reference_only) {
        continue;
      }
      const bool accessible = host.outcome == PO::accessible;
      if (upgrades > 0 && host.cohort == "C6b.good" && host.certificate.reuse_group < 0) {
        host.renewal = RenewalPlan{1, HA::sha1, false};
        --upgrades;
      } else if (downgrade > 0 && host.cohort == "C7" && host.certificate.reuse_group < 0 &&
                 host.certificate.signature_hash == HA::sha1) {
        host.renewal = RenewalPlan{4, HA::sha256, false};
        --downgrade;
      } else if (dual_refresh > 0 && host.certificate.dual_certificate &&
                 host.certificate.reuse_group < 0) {
        const bool sw = accessible && sw_updates > 0;
        if (sw) --sw_updates;
        host.renewal = RenewalPlan{1 + (week_cycle++ % 7), HA::sha1, sw, /*dual=*/true};
        --dual_refresh;
      } else if (sha256_refresh > 0 && host.certificate.reuse_group < 0 &&
                 host.certificate.signature_hash == HA::sha256 &&
                 !host.certificate.dual_certificate) {
        const bool sw = accessible && sw_updates > 0;
        if (sw) --sw_updates;
        host.renewal = RenewalPlan{1 + (week_cycle++ % 7), HA::sha256, sw};
        --sha256_refresh;
      }
    }
    verify({{"upgrades placed", 0, upgrades},
            {"downgrade placed", 0, downgrade},
            {"dual refresh placed", 0, dual_refresh},
            {"sha256 refresh placed", 0, sha256_refresh}});
    if (sw_updates > 0) throw std::logic_error("software-update renewals not exhausted");
  }
  {
    // The two CA-signed certificates of §5.2 (99 % self-signed, 2 CA-signed):
    // stable, clean hosts without any other certificate special-casing.
    int ca = 2;
    for (auto& host : plan.hosts) {
      if (ca == 0) break;
      if (host.cohort == "C6b.good" && host.certificate.reuse_group < 0 &&
          !host.certificate.ephemeral && !host.certificate.dual_certificate && !host.renewal) {
        host.certificate.ca_signed = true;
        --ca;
      }
    }
    verify({{"CA-signed certificates", 0, ca}});
  }
  {
    // Group G0 growth: 263 reuse devices at week 0 → 400 at week 7
    // (§5.5: +3 in the final week). Late arrivals: cumulative
    // [0,22,49,77,102,115,134,137] across weeks 1..7.
    const int arrivals_cum[8] = {0, 22, 49, 77, 102, 115, 134, 137};
    int placed = 0;
    int week = 1;
    for (auto& host : plan.hosts) {
      if (host.certificate.reuse_group != 0) continue;
      if (placed >= 137) break;
      while (week < 8 && placed >= arrivals_cum[week]) ++week;
      if (week >= 8) break;
      host.arrival_week = week;
      ++placed;
    }
    verify({{"G0 arrivals", 137, placed}});
  }
  {
    // Clean-host flappers tune the weekly deficiency series into the
    // paper's [91 %, 94 %] band (DESIGN.md): offline clean hosts per week
    // w1..w7: {0,5,0,4,3,22,0}.
    const int offline[8] = {0, 0, 5, 0, 4, 3, 22, 0};
    std::vector<HostPlan*> clean;
    for (auto& host : plan.hosts) {
      const bool crypto_clean =
          host.cohort == "C6b.good" || host.cohort == "C6c" || host.cohort == "C6a.strong";
      if (crypto_clean && !host.anonymous_offered() && !host.renewal &&
          host.certificate.reuse_group < 0 && !host.certificate.ephemeral) {
        clean.push_back(&host);
      }
    }
    // 89 clean hosts minus 7 upgrade-renewals minus 5 reuse = 77 eligible;
    // at most 22 needed per week.
    for (int w = 1; w < 8; ++w) {
      for (int i = 0; i < offline[w]; ++i) {
        clean[static_cast<std::size_t>(i)]->absence_mask |= static_cast<std::uint8_t>(1u << w);
      }
    }
  }

  // Departers: 108 extra (deficient) hosts beyond the final 1114, active
  // early and gone by week 6 (K_active = {108,95,79,46,29,18,0,0}).
  {
    const int active[8] = {108, 95, 79, 46, 29, 18, 0, 0};
    for (int i = 0; i < 108; ++i) {
      HostPlan host;
      host.index = index++;
      host.cohort = "departer";
      host.manufacturer = "other";
      host.application_uri = "urn:generic:opcua:departed-" + std::to_string(i);
      host.product_uri = "http://example.org/opcua";
      host.application_name = "departed server";
      host.policies = pC5a;
      host.modes = kModesNSE;
      host.tokens = {UT::UserName};
      host.outcome = PO::auth_rejected;
      host.certificate.present = true;
      host.certificate.signature_hash = HA::md5;
      host.certificate.key_bits = 1024;
      host.certificate.not_before_days = days_from_civil({2016, 5, 20});
      // Departure week: host i leaves once i >= active[w].
      for (int w = 0; w < 8; ++w) {
        if (i >= active[w]) host.absence_mask |= static_cast<std::uint8_t>(1u << w);
      }
      plan.hosts.push_back(std::move(host));
    }
  }

  // ------------------------------------------------------- AS + addresses --
  {
    // 28 ASes: 64500 = the IIoT ISP of §B.1.2, 64501/64502 = regional ISPs.
    // G0 must span exactly 24 ASes, G1 8, G2 5.
    std::vector<HostPlan*> g0, g1, g2, rest;
    for (auto& host : plan.hosts) {
      switch (host.certificate.reuse_group) {
        case 0: g0.push_back(&host); break;
        case 1: g1.push_back(&host); break;
        case 2: g2.push_back(&host); break;
        default: rest.push_back(&host); break;
      }
    }
    for (std::size_t i = 0; i < g0.size(); ++i) {
      // 120 hosts in the IIoT AS, remainder round-robin over 23 more.
      g0[i]->asn = i < 120 ? 64500 : 64501 + static_cast<std::uint32_t>((i - 120) % 23);
    }
    for (std::size_t i = 0; i < g1.size(); ++i) {
      g1[i]->asn = 64501 + static_cast<std::uint32_t>(i % 8);
    }
    for (std::size_t i = 0; i < g2.size(); ++i) {
      g2[i]->asn = 64510 + static_cast<std::uint32_t>(i % 5);
    }
    // Everyone else: weak-cert hosts lean towards the IIoT AS, deprecated +
    // anonymous towards the two regional ISPs, remainder spread over 64503+.
    std::size_t spread = 0;
    for (auto* host : rest) {
      const bool weak_cert = host->certificate.present &&
                             (host->certificate.signature_hash == HA::md5 ||
                              host->certificate.key_bits < 2048);
      if (weak_cert && spread % 3 == 0) {
        host->asn = 64500;
      } else if (host->anonymous_offered() && host->max_policy() != SP::None &&
                 policy_info(host->max_policy()).deprecated) {
        host->asn = 64501 + static_cast<std::uint32_t>(spread % 2);
      } else {
        host->asn = 64503 + static_cast<std::uint32_t>(spread % 25);
      }
      ++spread;
    }
  }

  // ------------------------------------------------------ discovery fleet --
  // 962 discovery-server plans; weekly presence follows Fig. 2's series.
  {
    const int max_discovery = 962;
    const int server_count = index;
    for (int i = 0; i < max_discovery; ++i) {
      HostPlan host;
      host.index = index++;
      host.cohort = "DS";
      host.discovery = true;
      host.manufacturer = "OPC Foundation";
      host.application_uri = "urn:opcfoundation:ua:lds:" + std::to_string(i);
      host.product_uri = "http://opcfoundation.org/UA/LDS";
      host.application_name = "UA Local Discovery Server";
      host.modes = kModesN;
      host.policies = pN;
      host.tokens = {UT::Anonymous};
      host.certificate.present = false;
      host.asn = 64503 + static_cast<std::uint32_t>(i % 25);
      for (int w = 0; w < kNumMeasurements; ++w) {
        if (i >= targets.discovery_found[w]) host.absence_mask |= static_cast<std::uint8_t>(1u << w);
      }
      plan.hosts.push_back(std::move(host));
    }
    // Reference wiring: every via-reference-only server is announced by the
    // first discovery servers (which are present in all weeks).
    int ds_cursor = 0;
    for (int s = 0; s < server_count; ++s) {
      if (!plan.hosts[static_cast<std::size_t>(s)].via_reference_only) continue;
      plan.discovery_references.emplace_back(server_count + (ds_cursor % 200), s);
      ++ds_cursor;
    }
  }

  // Final weekly totals check (Fig. 2).
  for (int w = 0; w < kNumMeasurements; ++w) {
    long servers = 0, discovery = 0;
    for (const auto& host : plan.hosts) {
      if (!host.present_in_week(w)) continue;
      if (host.discovery) {
        ++discovery;
      } else if (!host.via_reference_only || w >= 3) {
        ++servers;
      }
    }
    verify({{"weekly servers", targets.servers_found[w], servers},
            {"weekly discovery", targets.discovery_found[w], discovery}});
  }

  return plan;
}

}  // namespace opcua_study
