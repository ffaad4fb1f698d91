#include "study/study.hpp"

#include <cstdlib>

#include "crypto/x509.hpp"
#include "study/sharded.hpp"

namespace opcua_study {

std::string study_snapshot_path() {
  if (const char* env = std::getenv("OPCUA_STUDY_SNAPSHOT_CACHE")) return env;
  return ".opcua_study_snapshots.bin";
}

ClientConfig make_scanner_identity(std::uint64_t seed, KeyFactory& keys) {
  ClientConfig config;
  config.application_uri = "urn:example:research:opcua-scanner";
  config.application_name =
      "Internet-wide OPC UA security measurement - optout: https://scan.example.org";
  const RsaKeyPair pair = keys.get("scanner", 2048);
  CertificateSpec spec;
  spec.subject = {"opcua-scanner", "Example Research Group", "DE"};
  spec.signature_hash = HashAlgorithm::sha256;
  spec.serial = Bignum{seed | 1};
  spec.not_before_days = days_from_civil({2020, 1, 1});
  spec.not_after_days = days_from_civil({2021, 1, 1});
  spec.application_uri = config.application_uri;
  config.certificate_der = x509_create(spec, pair.pub, pair.priv);
  config.private_key = pair.priv;
  return config;
}

void run_full_study_streamed(const StudyConfig& config, SnapshotWriter& writer,
                             const ScanOptions& options) {
  ShardedStudy study(config, options);
  for (int week = 0; week < kNumMeasurements; ++week) {
    run_sharded_campaign_streamed(study.deployer(), week, study.config(), writer);
  }
  writer.finish();
}

}  // namespace opcua_study
