#include "crypto/x509.hpp"

#include <stdexcept>

namespace opcua_study {

namespace {

const Oid& signature_oid(HashAlgorithm alg) {
  switch (alg) {
    case HashAlgorithm::md5: return oid::kMd5WithRsa;
    case HashAlgorithm::sha1: return oid::kSha1WithRsa;
    case HashAlgorithm::sha256: return oid::kSha256WithRsa;
  }
  throw std::logic_error("bad hash");
}

HashAlgorithm hash_from_oid(const Oid& o) {
  if (o == oid::kMd5WithRsa) return HashAlgorithm::md5;
  if (o == oid::kSha1WithRsa) return HashAlgorithm::sha1;
  if (o == oid::kSha256WithRsa) return HashAlgorithm::sha256;
  throw DecodeError("unsupported signature algorithm OID " + o.to_string());
}

void write_name(DerWriter& w, const X509Name& name) {
  w.sequence([&](DerWriter& rdn_seq) {
    auto attribute = [&rdn_seq](const Oid& type, const std::string& value, bool printable) {
      if (value.empty()) return;
      rdn_seq.set([&](DerWriter& s) {
        s.sequence([&](DerWriter& attr) {
          attr.oid_value(type);
          if (printable) {
            attr.printable_string(value);
          } else {
            attr.utf8_string(value);
          }
        });
      });
    };
    attribute(oid::kCountry, name.country, true);
    attribute(oid::kOrganization, name.organization, false);
    attribute(oid::kCommonName, name.common_name, false);
  });
}

X509Name parse_name(std::span<const std::uint8_t> content) {
  X509Name name;
  DerParser rdns(content);
  while (!rdns.done()) {
    auto set_tlv = rdns.expect(der::kSet);
    DerParser set_parser(set_tlv.content);
    while (!set_parser.done()) {
      auto attr_tlv = set_parser.expect(der::kSequence);
      DerParser attr(attr_tlv.content);
      const Oid type = attr.read_oid();
      const std::string value = attr.read_string();
      if (type == oid::kCommonName) {
        name.common_name = value;
      } else if (type == oid::kOrganization) {
        name.organization = value;
      } else if (type == oid::kCountry) {
        name.country = value;
      }
    }
  }
  return name;
}

void write_spki(DerWriter& w, const RsaPublicKey& key) {
  w.sequence([&](DerWriter& spki) {
    spki.sequence([](DerWriter& alg) {
      alg.oid_value(oid::kRsaEncryption);
      alg.null();
    });
    DerWriter rsa_key;
    rsa_key.sequence([&](DerWriter& k) {
      k.integer(key.n);
      k.integer(key.e);
    });
    const Bytes key_der = rsa_key.take();
    spki.bit_string(key_der);
  });
}

RsaPublicKey parse_spki(std::span<const std::uint8_t> content) {
  DerParser spki(content);
  auto alg_tlv = spki.expect(der::kSequence);
  DerParser alg(alg_tlv.content);
  if (!(alg.read_oid() == oid::kRsaEncryption)) throw DecodeError("not an RSA key");
  const Bytes key_der = spki.read_bit_string();
  DerParser key_outer(key_der);
  auto key_tlv = key_outer.expect(der::kSequence);
  DerParser key(key_tlv.content);
  RsaPublicKey out;
  out.n = key.read_integer();
  out.e = key.read_integer();
  return out;
}

}  // namespace

Bytes x509_create(const CertificateSpec& spec, const RsaPublicKey& subject_key,
                  const RsaPrivateKey& issuer_key) {
  const X509Name& issuer = spec.issuer ? *spec.issuer : spec.subject;

  DerWriter tbs_writer;
  tbs_writer.sequence([&](DerWriter& tbs) {
    // [0] EXPLICIT version v3(2)
    tbs.constructed(der::context(0, true), [](DerWriter& v) { v.integer(std::int64_t{2}); });
    tbs.integer(spec.serial);
    tbs.sequence([&](DerWriter& alg) {
      alg.oid_value(signature_oid(spec.signature_hash));
      alg.null();
    });
    write_name(tbs, issuer);
    tbs.sequence([&](DerWriter& validity) {
      validity.time(spec.not_before_days);
      validity.time(spec.not_after_days);
    });
    write_name(tbs, spec.subject);
    write_spki(tbs, subject_key);
    // [3] EXPLICIT extensions
    tbs.constructed(der::context(3, true), [&](DerWriter& ext_wrap) {
      ext_wrap.sequence([&](DerWriter& exts) {
        if (!spec.application_uri.empty()) {
          exts.sequence([&](DerWriter& ext) {
            ext.oid_value(oid::kSubjectAltName);
            DerWriter san;
            san.sequence([&](DerWriter& names) {
              // GeneralName uniformResourceIdentifier [6] IA5String (primitive)
              names.tlv(der::context(6, false),
                        {reinterpret_cast<const std::uint8_t*>(spec.application_uri.data()),
                         spec.application_uri.size()});
            });
            const Bytes san_der = san.take();
            ext.octet_string(san_der);
          });
        }
        // basicConstraints: CA=false (end-entity application certificate)
        exts.sequence([](DerWriter& ext) {
          ext.oid_value(oid::kBasicConstraints);
          DerWriter bc;
          bc.sequence([](DerWriter&) {});
          const Bytes bc_der = bc.take();
          ext.octet_string(bc_der);
        });
      });
    });
  });
  const Bytes tbs = tbs_writer.take();
  const Bytes signature = rsa_pkcs1v15_sign(issuer_key, spec.signature_hash, tbs);

  DerWriter cert;
  cert.sequence([&](DerWriter& c) {
    c.raw(tbs);
    c.sequence([&](DerWriter& alg) {
      alg.oid_value(signature_oid(spec.signature_hash));
      alg.null();
    });
    c.bit_string(signature);
  });
  return cert.take();
}

Certificate x509_parse(std::span<const std::uint8_t> der_bytes) {
  Certificate cert;
  DerParser outer(der_bytes);
  auto cert_tlv = outer.expect(der::kSequence);
  if (!outer.done()) throw DecodeError("trailing bytes after certificate");

  DerParser fields(cert_tlv.content);
  auto tbs_tlv = fields.expect(der::kSequence);

  {
    DerParser tbs(tbs_tlv.content);
    if (tbs.peek_tag() == der::context(0, true)) tbs.next();  // version
    cert.serial = tbs.read_integer();
    auto alg_tlv = tbs.expect(der::kSequence);
    DerParser alg(alg_tlv.content);
    cert.signature_hash = hash_from_oid(alg.read_oid());
    cert.issuer = parse_name(tbs.expect(der::kSequence).content);
    auto validity_tlv = tbs.expect(der::kSequence);
    DerParser validity(validity_tlv.content);
    cert.not_before_days = validity.read_time_days();
    cert.not_after_days = validity.read_time_days();
    cert.subject = parse_name(tbs.expect(der::kSequence).content);
    cert.public_key = parse_spki(tbs.expect(der::kSequence).content);
    // Optional extensions.
    while (!tbs.done()) {
      auto tlv = tbs.next();
      if (tlv.tag != der::context(3, true)) continue;
      DerParser ext_wrap(tlv.content);
      auto exts_tlv = ext_wrap.expect(der::kSequence);
      DerParser exts(exts_tlv.content);
      while (!exts.done()) {
        auto ext_tlv = exts.expect(der::kSequence);
        DerParser ext(ext_tlv.content);
        const Oid type = ext.read_oid();
        if (ext.peek_tag() == der::kBoolean) ext.next();  // critical flag
        const Bytes value = ext.read_octet_string();
        if (type == oid::kSubjectAltName) {
          DerParser san_outer(value);
          auto names_tlv = san_outer.expect(der::kSequence);
          DerParser names(names_tlv.content);
          while (!names.done()) {
            auto name = names.next();
            if (name.tag == der::context(6, false)) {
              cert.application_uri.assign(name.content.begin(), name.content.end());
            }
          }
        }
      }
    }
  }

  auto sig_alg_tlv = fields.expect(der::kSequence);
  DerParser sig_alg(sig_alg_tlv.content);
  const HashAlgorithm outer_hash = hash_from_oid(sig_alg.read_oid());
  if (outer_hash != cert.signature_hash) throw DecodeError("signature algorithm mismatch");
  fields.read_bit_string();  // the signature, which only x509_verify reads
  if (!fields.done()) throw DecodeError("trailing certificate fields");
  return cert;
}

bool x509_verify(std::span<const std::uint8_t> der_bytes, const RsaPublicKey& issuer_key) {
  DerParser fields(DerParser(der_bytes).expect(der::kSequence).content);
  const std::span<const std::uint8_t> tbs = fields.expect(der::kSequence).full;
  const Oid algorithm = DerParser(fields.expect(der::kSequence).content).read_oid();
  return rsa_pkcs1v15_verify(issuer_key, hash_from_oid(algorithm), tbs, fields.read_bit_string());
}

Bytes x509_thumbprint(std::span<const std::uint8_t> der_bytes) {
  return hash(HashAlgorithm::sha1, der_bytes);
}

Sha1Digest certificate_sha1(std::span<const std::uint8_t> der_bytes) {
  Sha1 h;
  h.update(der_bytes);
  return h.digest();
}

std::uint64_t certificate_fingerprint64(std::span<const std::uint8_t> der_bytes) {
  return fingerprint64(certificate_sha1(der_bytes));
}

}  // namespace opcua_study
