#include "cache/artifact_cache.hpp"

#include <string>

#include "store/codec.hpp"
#include "support/env.hpp"
#include "uxs/corpus.hpp"

namespace rdv::cache {

namespace {

/// Read-through/write-behind shim around one artifact compute: consult
/// the disk tier first (a validated payload short-circuits the
/// compute), else compute and persist. Runs inside the memory store's
/// compute callback, i.e. outside its lock and at most once per
/// in-memory miss. A payload that validated but fails to decode (a
/// foreign codec under the same salt — should not happen) degrades to
/// recompute-and-overwrite rather than propagating.
template <typename T, typename Encode, typename Decode, typename Compute>
T through_disk(store::DiskStore* disk, store::Kind kind,
               const std::string& key, Encode&& encode, Decode&& decode,
               Compute&& compute) {
  if (disk != nullptr) {
    if (const auto payload = disk->load(kind, key)) {
      try {
        return decode(*payload);
      } catch (const store::CodecError&) {
      }
    }
  }
  T value = compute();
  if (disk != nullptr) (void)disk->save(kind, key, encode(value));
  return value;
}

std::uint64_t view_classes_bytes(const views::ViewClasses& c) {
  return c.class_of.size() * sizeof(std::uint32_t) + 2 * sizeof(std::uint32_t);
}

std::uint64_t quotient_bytes(const views::QuotientGraph& q) {
  std::uint64_t bytes = q.multiplicity.size() * sizeof(std::uint32_t);
  for (const auto& arcs : q.arcs) bytes += arcs.size() * sizeof(views::QuotientArc);
  return bytes;
}

std::uint64_t uxs_bytes(const uxs::Uxs& y) {
  return y.length() * sizeof(std::uint64_t) + y.provenance().size();
}

std::uint64_t all_pairs_shrink_bytes(const views::AllPairsShrink& a) {
  return a.values.size() * sizeof(std::uint32_t) +
         sizeof(views::AllPairsShrink);
}

/// Fixed-width lowercase hex (16 digits), with no intermediate
/// fixed-size buffer anywhere in the key path.
std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace

ArtifactCache::ArtifactCache(const CacheConfig& config)
    : config_(config),
      view_classes_(config.enabled),
      quotients_(config.enabled),
      uxs_(config.enabled),
      all_pairs_shrink_(config.enabled) {}

std::shared_ptr<const views::ViewClasses> ArtifactCache::view_classes(
    const graph::Graph& g) {
  return view_classes(g, fingerprint(g));
}

std::string ArtifactCache::disk_key(const GraphFingerprint& fp) {
  return "fp-" + hex16(fp.hi) + "-" + hex16(fp.lo) + "-n" +
         std::to_string(fp.n);
}

std::shared_ptr<const views::ViewClasses> ArtifactCache::view_classes(
    const graph::Graph& g, const GraphFingerprint& fp) {
  return view_classes_.get_or_compute(
      fp,
      [this, &g, &fp] {
        return through_disk<views::ViewClasses>(
            disk(), store::Kind::kViewClasses, disk_key(fp),
            store::encode_view_classes, store::decode_view_classes,
            [&g] { return views::compute_view_classes(g); });
      },
      view_classes_bytes);
}

std::shared_ptr<const views::QuotientGraph> ArtifactCache::quotient(
    const graph::Graph& g) {
  return quotient(g, fingerprint(g));
}

std::shared_ptr<const views::QuotientGraph> ArtifactCache::quotient(
    const graph::Graph& g, const GraphFingerprint& fp) {
  return quotients_.get_or_compute(
      fp,
      [this, &g, &fp] {
        return through_disk<views::QuotientGraph>(
            disk(), store::Kind::kQuotients, disk_key(fp),
            store::encode_quotient, store::decode_quotient, [this, &g, &fp] {
              return views::build_quotient(g, *view_classes(g, fp));
            });
      },
      quotient_bytes);
}

std::shared_ptr<const uxs::Uxs> ArtifactCache::uxs(std::uint32_t n) {
  return uxs_.get_or_compute(
      n,
      [this, n] {
        std::string key = "n";
        key += std::to_string(n);
        return through_disk<uxs::Uxs>(
            disk(), store::Kind::kUxs, key,
            store::encode_uxs, store::decode_uxs,
            [n] { return uxs::corpus_verified_uxs(n); });
      },
      uxs_bytes);
}

std::shared_ptr<const views::AllPairsShrink> ArtifactCache::all_pairs_shrink(
    const graph::Graph& g) {
  return all_pairs_shrink(g, fingerprint(g));
}

std::shared_ptr<const views::AllPairsShrink> ArtifactCache::all_pairs_shrink(
    const graph::Graph& g, const GraphFingerprint& fp) {
  return all_pairs_shrink_.get_or_compute(
      fp,
      [this, &g, &fp] {
        return through_disk<views::AllPairsShrink>(
            disk(), store::Kind::kShrinkAllPairs, disk_key(fp),
            store::encode_all_pairs_shrink, store::decode_all_pairs_shrink,
            [&g] { return views::shrink_all_pairs(g); });
      },
      all_pairs_shrink_bytes);
}

CacheStats ArtifactCache::stats() const {
  CacheStats stats;
  stats.view_classes = view_classes_.stats();
  stats.quotients = quotients_.stats();
  stats.uxs = uxs_.stats();
  stats.all_pairs_shrink = all_pairs_shrink_.stats();
  return stats;
}

ArtifactCache& global_cache() {
  static ArtifactCache* cache = [] {
    CacheConfig config;
    const std::string store_dir = support::rdv_store_dir();
    if (!store_dir.empty()) {
      store::DiskConfig disk_config;
      disk_config.root = store_dir;
      const std::string salt = support::rdv_store_salt();
      if (!salt.empty()) disk_config.build_salt = salt;
      disk_config.read_only = support::rdv_store_readonly();
      config.disk = std::make_shared<store::DiskStore>(disk_config);
    }
    return new ArtifactCache(config);  // intentionally leaked: process-global
  }();
  return *cache;
}

std::shared_ptr<const views::ViewClasses> cached_view_classes(
    const graph::Graph& g, ArtifactCache* cache) {
  return (cache != nullptr ? *cache : global_cache()).view_classes(g);
}

std::shared_ptr<const views::QuotientGraph> cached_quotient(
    const graph::Graph& g, ArtifactCache* cache) {
  return (cache != nullptr ? *cache : global_cache()).quotient(g);
}

std::shared_ptr<const uxs::Uxs> cached_uxs(std::uint32_t n,
                                           ArtifactCache* cache) {
  return (cache != nullptr ? *cache : global_cache()).uxs(n);
}

std::shared_ptr<const views::AllPairsShrink> cached_all_pairs_shrink(
    const graph::Graph& g, ArtifactCache* cache) {
  return (cache != nullptr ? *cache : global_cache()).all_pairs_shrink(g);
}

uxs::UxsProvider cached_uxs_provider(ArtifactCache* cache) {
  return [cache](std::uint32_t n) { return *cached_uxs(n, cache); };
}

}  // namespace rdv::cache
