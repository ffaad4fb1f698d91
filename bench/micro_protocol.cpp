// google-benchmark microbenchmarks: crypto primitives, OPC UA encoding,
// secure-channel operations, sweep rate, batch GCD.
#include <benchmark/benchmark.h>

#include "crypto/aes.hpp"
#include "crypto/batch_gcd.hpp"
#include "crypto/x509.hpp"
#include "opcua/messages.hpp"
#include "opcua/secureconv.hpp"
#include "scanner/lfsr.hpp"
#include "util/rng.hpp"

namespace opcua_study {
namespace {

const RsaKeyPair& bench_key() {
  static const RsaKeyPair kp = [] {
    Rng rng(31337);
    return rsa_generate(rng, 2048, 8);
  }();
  return kp;
}

const Bytes& bench_cert() {
  static const Bytes der = [] {
    CertificateSpec spec;
    spec.subject = {"bench", "Bench Org", "DE"};
    spec.application_uri = "urn:bench";
    spec.not_after_days = 30000;
    return x509_create(spec, bench_key().pub, bench_key().priv);
  }();
  return der;
}

void BM_Sha256_1KiB(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.bytes(1024);
  for (auto _ : state) benchmark::DoNotOptimize(hash(HashAlgorithm::sha256, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_Md5_1KiB(benchmark::State& state) {
  Rng rng(2);
  const Bytes data = rng.bytes(1024);
  for (auto _ : state) benchmark::DoNotOptimize(hash(HashAlgorithm::md5, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Md5_1KiB);

void BM_AesCbc_1KiB(benchmark::State& state) {
  Rng rng(3);
  const Bytes key = rng.bytes(32), iv = rng.bytes(16), data = rng.bytes(1024);
  for (auto _ : state) benchmark::DoNotOptimize(aes_cbc_encrypt(key, iv, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_AesCbc_1KiB);

void BM_RsaSign2048(benchmark::State& state) {
  const Bytes msg = to_bytes("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_pkcs1v15_sign(bench_key().priv, HashAlgorithm::sha256, msg));
  }
}
BENCHMARK(BM_RsaSign2048);

void BM_RsaVerify2048(benchmark::State& state) {
  const Bytes msg = to_bytes("benchmark message");
  const Bytes sig = rsa_pkcs1v15_sign(bench_key().priv, HashAlgorithm::sha256, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_pkcs1v15_verify(bench_key().pub, HashAlgorithm::sha256, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify2048);

void BM_X509Parse(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(x509_parse(bench_cert()));
}
BENCHMARK(BM_X509Parse);

void BM_OpnBuildParse_None(benchmark::State& state) {
  Rng rng(4);
  const Bytes body = rng.bytes(200);
  OpnSecurity sec;
  for (auto _ : state) {
    const Bytes wire = build_opn(1, sec, SequenceHeader{1, 1}, body, rng);
    benchmark::DoNotOptimize(parse_opn(wire, nullptr));
  }
}
BENCHMARK(BM_OpnBuildParse_None);

// A secured OPN as the grab's secure probe sends it: signed and encrypted
// with the 2048-bit bench key on both sides, then decrypted and verified.
void BM_OpnBuildParse_Basic256Sha256(benchmark::State& state) {
  Rng rng(6);
  const Bytes body = rng.bytes(200);
  OpnSecurity sec;
  sec.policy = SecurityPolicy::Basic256Sha256;
  sec.local_private = &bench_key().priv;
  sec.local_cert_der = bench_cert();
  sec.remote_public = &bench_key().pub;
  sec.remote_cert_thumbprint = x509_thumbprint(bench_cert());
  for (auto _ : state) {
    const Bytes wire = build_opn(1, sec, SequenceHeader{1, 1}, body, rng);
    benchmark::DoNotOptimize(parse_opn(wire, &bench_key().priv));
  }
}
BENCHMARK(BM_OpnBuildParse_Basic256Sha256);

void BM_MsgSignEncrypt_Basic256Sha256(benchmark::State& state) {
  Rng rng(5);
  const DerivedKeys keys =
      derive_keys(SecurityPolicy::Basic256Sha256, rng.bytes(32), rng.bytes(32));
  const Bytes body = rng.bytes(512);
  for (auto _ : state) {
    const Bytes wire =
        build_msg("MSG", 1, 1, SequenceHeader{1, 1}, body, SecurityPolicy::Basic256Sha256,
                  MessageSecurityMode::SignAndEncrypt, keys);
    benchmark::DoNotOptimize(
        parse_msg(wire, SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt, keys));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_MsgSignEncrypt_Basic256Sha256);

// OPC UA message codec: one pack_service + unpack_service round trip per
// iteration, the work every grab does for each reply (and the simulated
// server for each request).
void BM_GetEndpointsResponseCodec(benchmark::State& state) {
  GetEndpointsResponse resp;
  for (int i = 0; i < 6; ++i) {
    EndpointDescription ep;
    ep.endpoint_url = "opc.tcp://192.0.2.1:4840/";
    ep.server.application_uri = "urn:bench:server";
    ep.server.product_uri = "urn:bench:product";
    ep.server.application_name = {"en", "Bench Server"};
    ep.server.discovery_urls = {"opc.tcp://192.0.2.1:4840/"};
    ep.server_certificate = bench_cert();
    ep.security_mode = static_cast<MessageSecurityMode>(1 + i % 3);
    ep.security_policy_uri = std::string(policy_info(kAllPolicies[i]).uri);
    for (const UserTokenType t : {UserTokenType::Anonymous, UserTokenType::UserName}) {
      ep.user_identity_tokens.push_back({"policy-" + user_token_type_name(t), t, ""});
    }
    resp.endpoints.push_back(std::move(ep));
  }
  const std::size_t bytes = pack_service(resp).size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(unpack_service<GetEndpointsResponse>(pack_service(resp)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_GetEndpointsResponseCodec);

void BM_BrowseResponseCodec(benchmark::State& state) {
  BrowseResult result;
  result.continuation_point = {0xc0, 0x01};
  for (std::uint32_t i = 0; i < 64; ++i) {
    ReferenceDescription ref;
    ref.reference_type_id = NodeId(0, 47);
    ref.node_id = NodeId(2, 1000 + i);
    ref.browse_name = {2, "Sensor" + std::to_string(i)};
    ref.display_name = {"", "Sensor " + std::to_string(i)};
    ref.node_class = i % 4 == 3 ? NodeClass::Method : NodeClass::Variable;
    ref.type_definition = NodeId(0, 63);
    result.references.push_back(std::move(ref));
  }
  BrowseResponse resp;
  resp.results.push_back(std::move(result));
  const std::size_t bytes = pack_service(resp).size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(unpack_service<BrowseResponse>(pack_service(resp)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_BrowseResponseCodec);

void BM_LfsrSweep(benchmark::State& state) {
  // Full pseudo-random pass over a /16 (zmap-style address permutation).
  std::uint64_t seed = 9;
  for (auto _ : state) {
    AddressSweep sweep(parse_cidr("10.20.0.0/16"), seed++);
    std::uint64_t sum = 0;
    while (auto ip = sweep.next()) sum += *ip;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_LfsrSweep);

void BM_BatchGcd64(benchmark::State& state) {
  Rng rng(10);
  std::vector<Bignum> moduli;
  for (int i = 0; i < 64; ++i) {
    moduli.push_back(Bignum::generate_prime(rng, 128, 6) * Bignum::generate_prime(rng, 128, 6));
  }
  for (auto _ : state) benchmark::DoNotOptimize(batch_gcd(moduli));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BatchGcd64);

}  // namespace
}  // namespace opcua_study

BENCHMARK_MAIN();
