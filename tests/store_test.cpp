#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "cache/fingerprint.hpp"
#include "graph/families/families.hpp"
#include "store/codec.hpp"
#include "store/disk_store.hpp"
#include "store/log_tools.hpp"
#include "store/result_log.hpp"
#include "support/splitmix.hpp"
#include "uxs/corpus.hpp"
#include "uxs/uxs.hpp"
#include "views/quotient.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

namespace rdv::store {
namespace {

namespace fs = std::filesystem;
namespace families = rdv::graph::families;

/// Fresh directory per test (TempDir is shared across the binary).
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "store_test_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---- codec ----------------------------------------------------------

TEST(Codec, PrimitivesRoundTripAndRejectTrailing) {
  Encoder e;
  e.u32(0xDEADBEEFu);
  e.u64(0x0123456789ABCDEFULL);
  e.str("hello");
  e.u32_vec({1, 2, 3});
  e.u64_vec({});
  const std::string bytes = e.bytes();

  Decoder d(bytes);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(d.str(), "hello");
  EXPECT_EQ(d.u32_vec(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_TRUE(d.u64_vec().empty());
  EXPECT_NO_THROW(d.finish());

  // Keep the buffer alive: Decoder views, it does not copy.
  const std::string with_tail = bytes + "x";
  Decoder trailing(with_tail);
  (void)trailing.u32();
  (void)trailing.u64();
  (void)trailing.str();
  (void)trailing.u32_vec();
  (void)trailing.u64_vec();
  EXPECT_THROW(trailing.finish(), CodecError);

  const std::string cut = bytes.substr(0, 6);
  Decoder truncated(cut);
  (void)truncated.u32();
  EXPECT_THROW(truncated.u64(), CodecError);
}

TEST(Codec, ChecksumDetectsFlipsAndPermutations) {
  const std::uint64_t base = checksum("abcdefgh12345678");
  EXPECT_EQ(checksum("abcdefgh12345678"), base);
  EXPECT_NE(checksum("Abcdefgh12345678"), base);
  EXPECT_NE(checksum("12345678abcdefgh"), base);  // permuted blocks
  EXPECT_NE(checksum("abcdefgh1234567"), base);   // truncated
}

TEST(Codec, ArtifactsRoundTripByteExactly) {
  const graph::Graph g = families::oriented_torus(3, 3);

  const uxs::Uxs y = uxs::corpus_verified_uxs(4);
  const uxs::Uxs y2 = decode_uxs(encode_uxs(y));
  EXPECT_TRUE(std::equal(y.terms().begin(), y.terms().end(),
                         y2.terms().begin(), y2.terms().end()));
  EXPECT_EQ(y.provenance(), y2.provenance());
  // Determinism: encoding the decoded value reproduces the same bytes.
  EXPECT_EQ(encode_uxs(y), encode_uxs(y2));

  const views::ViewClasses c = views::compute_view_classes(g);
  const views::ViewClasses c2 = decode_view_classes(encode_view_classes(c));
  EXPECT_EQ(c.class_of, c2.class_of);
  EXPECT_EQ(c.class_count, c2.class_count);
  EXPECT_EQ(c.rounds, c2.rounds);

  const views::QuotientGraph q = views::build_quotient(g, c);
  const views::QuotientGraph q2 = decode_quotient(encode_quotient(q));
  EXPECT_EQ(q.multiplicity, q2.multiplicity);
  ASSERT_EQ(q.arcs.size(), q2.arcs.size());
  for (std::size_t i = 0; i < q.arcs.size(); ++i) {
    ASSERT_EQ(q.arcs[i].size(), q2.arcs[i].size());
    for (std::size_t p = 0; p < q.arcs[i].size(); ++p) {
      EXPECT_EQ(q.arcs[i][p].to_class, q2.arcs[i][p].to_class);
      EXPECT_EQ(q.arcs[i][p].rev_port, q2.arcs[i][p].rev_port);
    }
  }
}

TEST(Codec, DecodersRejectGarbage) {
  EXPECT_THROW(decode_uxs("garbage"), CodecError);
  EXPECT_THROW(decode_view_classes(""), CodecError);
  EXPECT_THROW(decode_quotient("\x01\x02"), CodecError);
  // Valid payload + trailing byte is rejected too.
  const std::string ok = encode_view_classes(views::ViewClasses{{0, 1}, 2, 1});
  EXPECT_THROW(decode_view_classes(ok + "z"), CodecError);
}

// ---- pinned bytes ---------------------------------------------------
//
// Store files must stay byte-identical across codec and I/O rewrites:
// the checksum constants were computed with the byte-at-a-time codec,
// before the bulk little-endian paths landed. The store files are
// pinned in format version 2, and the version 1 files they replaced
// are rebuilt from the test-local v1 layout below and pinned too.

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// `length` seeded bytes, every value 0..255 represented.
std::string seeded_bytes(std::size_t length, std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  std::string bytes(length, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.next());
  return bytes;
}

template <typename T>
void reference_put(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof v; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void reference_put_str(std::string& out, std::string_view s) {
  reference_put<std::uint64_t>(out, s.size());
  out.append(s);
}

/// A complete store file in format version 1: magic, version 1, salt,
/// kind and key echo, payload size and checksum, then the payload.
std::string version1_file(std::string_view salt, Kind kind,
                          std::string_view key, std::string_view payload) {
  std::string out = "RDVS";
  reference_put<std::uint32_t>(out, 1);
  reference_put_str(out, salt);
  reference_put_str(out, kind_name(kind));
  reference_put_str(out, key);
  reference_put<std::uint64_t>(out, payload.size());
  reference_put<std::uint64_t>(out, checksum(payload));
  out.append(payload);
  return out;
}

/// The all-pairs Shrink payload in format version 1: u32 n, u64 cell
/// count, n*n little-endian u32 cells, u64 pairs_explored.
std::string version1_shrink_payload(const views::AllPairsShrink& a) {
  std::string out;
  reference_put<std::uint32_t>(out, a.n);
  reference_put<std::uint64_t>(out, a.values.size());
  for (const std::uint32_t v : a.values) reference_put(out, v);
  reference_put<std::uint64_t>(out, a.pairs_explored);
  return out;
}

TEST(PinnedBytes, ChecksumOfLengthsZeroToSeventeen) {
  constexpr std::uint64_t kExpected[18] = {
      0xe32b1c23057afb33ull, 0x5e6785a21f0c3095ull, 0x8d6d916f10024c14ull,
      0xa4760830e40e99e6ull, 0x142fd2d19cc71435ull, 0xacc96b2332a7c130ull,
      0x1244b30df1623bb6ull, 0x8aa6802e511446afull, 0x2d18f405ec8c64ebull,
      0xe9b6f497d0ceeabaull, 0xb84f74c10d238ec0ull, 0x3013d03638a7cd2aull,
      0x708ee75a872fb8e1ull, 0x70767c39960ae13bull, 0xf33e93786650edfcull,
      0x146bf696571e7edeull, 0xb6ee825e3adead6bull, 0x31fd0783cb3eb40bull};
  const std::string bytes = seeded_bytes(17, 0xC5);
  for (std::size_t length = 0; length <= 17; ++length) {
    const std::uint64_t sum =
        checksum(std::string_view(bytes).substr(0, length));
    EXPECT_EQ(sum, kExpected[length])
        << "length " << length << ": 0x" << std::hex << sum;
  }
}

TEST(PinnedBytes, DiskStoreFilesOfEveryKind) {
  DiskConfig config;
  config.root = fresh_dir("pinned");
  DiskStore store(config);
  const graph::Graph g = families::random_connected(1024, 1792, 35);
  const views::ViewClasses classes = views::compute_view_classes(g);
  const graph::Graph torus = families::oriented_torus(4, 6);
  const views::ViewClasses torus_classes = views::compute_view_classes(torus);
  const views::AllPairsShrink shrink = views::shrink_all_pairs(g);
  // Size and digest in format version 2, and the digest of the same
  // file in version 1. Only the Shrink payload changed between the two:
  // every other file differs in the version field alone.
  struct File {
    Kind kind;
    std::string key;
    std::string payload;
    std::size_t size;
    std::uint64_t digest;
    std::uint64_t v1_digest;
  };
  const File files[] = {
      {Kind::kViewClasses, "random1024", encode_view_classes(classes), 4198,
       0xa3e4516f8f1b8584ull, 0x4c1dda757ae0f15bull},
      {Kind::kViewClasses, "torus4x6", encode_view_classes(torus_classes),
       196, 0x8bcef4d551e29064ull, 0x696f6f5f2ed24cafull},
      {Kind::kQuotients, "random1024",
       encode_quotient(views::build_quotient(g, classes)), 57427,
       0x5dccf459523ff8c6ull, 0xeb914dd0f65f5ed3ull},
      {Kind::kQuotients, "torus4x6",
       encode_quotient(views::build_quotient(torus, torus_classes)), 141,
       0x090982f81e8bfe7bull, 0xf0c5b65fcde317e2ull},
      {Kind::kUxs, "n9", encode_uxs(uxs::Uxs::pseudo_random(41, 9)), 438,
       0x3bbfafb4cc856e4bull, 0x96a31732ed85903cull},
      {Kind::kShrinkAllPairs, "random1024", encode_all_pairs_shrink(shrink),
       1048682, 0xabf1e92ee51153e6ull, 0x883ee39fe86e7747ull},
  };
  for (const File& f : files) {
    SCOPED_TRACE(std::string(kind_name(f.kind)) + "/" + f.key);
    ASSERT_TRUE(store.save(f.kind, f.key, f.payload));
    const std::string bytes = read_file(store.path_for(f.kind, f.key));
    EXPECT_EQ(bytes.size(), f.size);
    EXPECT_EQ(fnv1a(bytes), f.digest) << "0x" << std::hex << fnv1a(bytes);
    const auto loaded = store.load(f.kind, f.key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, f.payload);

    const std::string v1 =
        f.kind == Kind::kShrinkAllPairs
            ? version1_file(kDefaultBuildSalt, f.kind, f.key,
                            version1_shrink_payload(shrink))
            : version1_file(kDefaultBuildSalt, f.kind, f.key, f.payload);
    EXPECT_EQ(fnv1a(v1), f.v1_digest) << "0x" << std::hex << fnv1a(v1);
  }
}

// ---- bulk paths against the byte-wise codec -------------------------
//
// The byte-at-a-time checksum and vector codec the store shipped with,
// kept as oracles: the word-wise checksum and the memcpy vector paths
// must agree with them on every length and on views that start at any
// offset from an 8-byte boundary.

std::uint64_t reference_scramble(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t reference_checksum(std::string_view bytes) {
  std::uint64_t state = 0xC0DEC0DE5EED0003ULL;
  std::uint64_t position = 0;
  std::size_t i = 0;
  while (i < bytes.size()) {
    std::uint64_t word = 0;
    for (int b = 0; b < 8 && i < bytes.size(); ++b, ++i) {
      word |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(bytes[i]))
              << (8 * b);
    }
    state = reference_scramble(state ^ (word + 0x9E3779B97F4A7C15ULL *
                                                   ++position));
  }
  return reference_scramble(state ^ bytes.size());
}

template <typename T>
T reference_get(std::string_view in, std::size_t& pos) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof v; ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(in.at(pos + i)))
         << (8 * i);
  }
  pos += sizeof v;
  return v;
}

template <typename T>
std::string reference_encode_vec(const std::vector<T>& v) {
  std::string out;
  reference_put<std::uint64_t>(out, v.size());
  for (const T x : v) reference_put(out, x);
  return out;
}

template <typename T>
std::vector<T> reference_decode_vec(std::string_view in, std::size_t& pos) {
  std::vector<T> v(reference_get<std::uint64_t>(in, pos));
  for (T& x : v) x = reference_get<T>(in, pos);
  return v;
}

TEST(CodecOracle, ChecksumMatchesByteWiseReferenceAtEveryOffset) {
  const std::string buffer = seeded_bytes(64 + 7, 0x0AC1E);
  for (std::size_t offset = 0; offset <= 7; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view view =
          std::string_view(buffer).substr(offset, length);
      EXPECT_EQ(checksum(view), reference_checksum(view))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(CodecOracle, VectorCodecMatchesByteWiseReferenceAtEveryOffset) {
  support::SplitMix64 rng(0x0AC1E);
  for (std::size_t length = 0; length <= 64; ++length) {
    std::vector<std::uint32_t> v32(length);
    std::vector<std::uint64_t> v64(length);
    for (std::uint32_t& x : v32) x = static_cast<std::uint32_t>(rng.next());
    for (std::uint64_t& x : v64) x = rng.next();
    Encoder e;
    e.u32_vec(v32);
    e.u64_vec(v64);
    const std::string expected =
        reference_encode_vec(v32) + reference_encode_vec(v64);
    ASSERT_EQ(e.bytes(), expected) << "length " << length;
    for (std::size_t offset = 0; offset <= 7; ++offset) {
      SCOPED_TRACE("length " + std::to_string(length) + " offset " +
                   std::to_string(offset));
      const std::string buffer = std::string(offset, '\x5A') + expected;
      const std::string_view view = std::string_view(buffer).substr(offset);
      Decoder d(view);
      EXPECT_EQ(d.u32_vec(), v32);
      EXPECT_EQ(d.u64_vec(), v64);
      EXPECT_NO_THROW(d.finish());
      std::size_t pos = 0;
      EXPECT_EQ(reference_decode_vec<std::uint32_t>(view, pos), v32);
      EXPECT_EQ(reference_decode_vec<std::uint64_t>(view, pos), v64);
      EXPECT_EQ(pos, view.size());
    }
  }
}

// ---- DiskStore ------------------------------------------------------

TEST(DiskStore, SaveLoadRoundTripWithStats) {
  DiskConfig config;
  config.root = fresh_dir("roundtrip");
  DiskStore store(config);

  EXPECT_FALSE(store.load(Kind::kUxs, "n6").has_value());
  EXPECT_EQ(store.stats(Kind::kUxs).misses, 1u);

  const std::string payload = encode_uxs(uxs::corpus_verified_uxs(4));
  EXPECT_TRUE(store.save(Kind::kUxs, "n6", payload));
  const auto loaded = store.load(Kind::kUxs, "n6");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);

  const DiskStats stats = store.stats(Kind::kUxs);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_GT(stats.bytes_written, payload.size());  // header overhead
  EXPECT_GT(stats.bytes, 0u);  // bytes served (the shared TierStats axis)
  // Kinds are separate namespaces (and separate subdirectories).
  EXPECT_FALSE(store.load(Kind::kShrinkAllPairs, "n6").has_value());
  EXPECT_TRUE(
      fs::exists(fs::path(config.root) / "uxs" / "n6.bin"));
}

TEST(DiskStore, CorruptionAndTruncationFallBackToMiss) {
  DiskConfig config;
  config.root = fresh_dir("corrupt");
  DiskStore store(config);
  const std::string payload = "payload-bytes-0123456789";
  ASSERT_TRUE(store.save(Kind::kShrinkAllPairs, "k1", payload));
  const std::string path = store.path_for(Kind::kShrinkAllPairs, "k1");

  // Flip one payload byte: checksum mismatch -> corrupt miss.
  std::string bytes = read_file(path);
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
  write_file(path, bytes);
  EXPECT_FALSE(store.load(Kind::kShrinkAllPairs, "k1").has_value());
  EXPECT_EQ(store.stats(Kind::kShrinkAllPairs).corrupt, 1u);

  // Truncate mid-header: corrupt miss, not a crash.
  write_file(path, read_file(path).substr(0, 9));
  EXPECT_FALSE(store.load(Kind::kShrinkAllPairs, "k1").has_value());

  // Garbage magic: corrupt miss.
  write_file(path, "not a store file at all");
  EXPECT_FALSE(store.load(Kind::kShrinkAllPairs, "k1").has_value());

  // Empty file (torn creation): corrupt miss.
  write_file(path, "");
  EXPECT_FALSE(store.load(Kind::kShrinkAllPairs, "k1").has_value());
  EXPECT_EQ(store.stats(Kind::kShrinkAllPairs).corrupt, 4u);

  // A rewrite repairs the entry.
  ASSERT_TRUE(store.save(Kind::kShrinkAllPairs, "k1", payload));
  const auto repaired = store.load(Kind::kShrinkAllPairs, "k1");
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, payload);
}

TEST(DiskStore, VersionAndSaltMismatchAreMissesNotCorruption) {
  const std::string root = fresh_dir("salt");
  DiskConfig writer_config;
  writer_config.root = root;
  writer_config.build_salt = "salt-A";
  DiskStore writer(writer_config);
  ASSERT_TRUE(writer.save(Kind::kUxs, "n5", "uxs-payload"));

  // Same salt reads back...
  DiskStore same(writer_config);
  EXPECT_TRUE(same.load(Kind::kUxs, "n5").has_value());

  // ...a different build salt must NOT trust the artifact.
  DiskConfig reader_config;
  reader_config.root = root;
  reader_config.build_salt = "salt-B";
  DiskStore reader(reader_config);
  EXPECT_FALSE(reader.load(Kind::kUxs, "n5").has_value());
  const DiskStats stats = reader.stats(Kind::kUxs);
  EXPECT_EQ(stats.version_mismatch, 1u);
  EXPECT_EQ(stats.corrupt, 0u);

  // A bumped on-disk format version is likewise a clean miss: patch the
  // version field (4 bytes, little-endian, right after the magic).
  std::string bytes = read_file(writer.path_for(Kind::kUxs, "n5"));
  bytes[4] = static_cast<char>(kFormatVersion + 1);
  write_file(writer.path_for(Kind::kUxs, "n5"), bytes);
  EXPECT_FALSE(same.load(Kind::kUxs, "n5").has_value());
  EXPECT_EQ(same.stats(Kind::kUxs).version_mismatch, 1u);
}

// load() reads the header length save() writes for its own salt and
// key first; a file whose header is longer or shorter must still be
// classified as the whole file says.
TEST(DiskStore, SaltsAndKeysOfOtherLengthsAreClassifiedLikeTheFile) {
  const std::string root = fresh_dir("salt_lengths");
  const std::string long_salt = "a-build-salt-much-longer-than-the-payload";
  for (const auto& [written, read] :
       {std::pair<std::string, std::string>{"s", long_salt},
        std::pair<std::string, std::string>{long_salt, "s"}}) {
    SCOPED_TRACE(written + " -> " + read);
    DiskConfig writer_config;
    writer_config.root = root;
    writer_config.build_salt = written;
    DiskStore writer(writer_config);
    ASSERT_TRUE(writer.save(Kind::kUxs, "n5", "p"));
    DiskConfig reader_config = writer_config;
    reader_config.build_salt = read;
    DiskStore reader(reader_config);
    EXPECT_FALSE(reader.load(Kind::kUxs, "n5").has_value());
    EXPECT_EQ(reader.stats(Kind::kUxs).version_mismatch, 1u);
    EXPECT_EQ(reader.stats(Kind::kUxs).corrupt, 0u);
  }

  DiskConfig config;
  config.root = root;
  DiskStore store(config);
  ASSERT_TRUE(store.save(Kind::kUxs, "n5", "five"));
  ASSERT_TRUE(store.save(Kind::kUxs, "n5-long-key", "five"));
  fs::copy_file(store.path_for(Kind::kUxs, "n5"),
                store.path_for(Kind::kUxs, "n5-long"));
  fs::copy_file(store.path_for(Kind::kUxs, "n5-long-key"),
                store.path_for(Kind::kUxs, "n6"));
  EXPECT_FALSE(store.load(Kind::kUxs, "n5-long").has_value());
  EXPECT_FALSE(store.load(Kind::kUxs, "n6").has_value());
  EXPECT_EQ(store.stats(Kind::kUxs).corrupt, 2u);
  EXPECT_EQ(store.stats(Kind::kUxs).version_mismatch, 0u);
}

TEST(DiskStore, KeyEchoRejectsRenamedFiles) {
  DiskConfig config;
  config.root = fresh_dir("echo");
  DiskStore store(config);
  ASSERT_TRUE(store.save(Kind::kUxs, "n5", "five"));
  // A file copied under another key must not serve that key.
  fs::copy_file(store.path_for(Kind::kUxs, "n5"),
                store.path_for(Kind::kUxs, "n7"));
  EXPECT_FALSE(store.load(Kind::kUxs, "n7").has_value());
  EXPECT_EQ(store.stats(Kind::kUxs).corrupt, 1u);
}

TEST(DiskStore, ReadOnlyServesHitsWithoutWriting) {
  const std::string root = fresh_dir("readonly");
  DiskConfig rw;
  rw.root = root;
  DiskStore writer(rw);
  ASSERT_TRUE(writer.save(Kind::kUxs, "n5", "five"));

  DiskConfig ro = rw;
  ro.read_only = true;
  DiskStore reader(ro);
  EXPECT_TRUE(reader.load(Kind::kUxs, "n5").has_value());
  EXPECT_FALSE(reader.save(Kind::kUxs, "n9", "nine"));
  EXPECT_EQ(reader.stats(Kind::kUxs).writes, 0u);
  EXPECT_FALSE(fs::exists(reader.path_for(Kind::kUxs, "n9")));
}

// Crash-safety of the final file: the temp must never be renamed into
// place unless every durable-write stage — write, the pre-rename
// fsync, close — succeeded. A failure injected at each stage must
// leave NO final file (not a zero-length or partial one) and no stray
// temp, and count a write failure.
TEST(DiskStore, TempFileIsNeverRenamedUnflushed) {
  for (const char* failing_stage : {"open", "write", "sync", "close"}) {
    SCOPED_TRACE(failing_stage);
    DiskConfig config;
    config.root = fresh_dir(std::string("unflushed_") + failing_stage);
    std::string observed;
    config.fail_stage = [&observed, failing_stage](const char* stage) {
      observed += stage;
      observed += ";";
      return std::string_view(stage) == failing_stage;
    };
    DiskStore store(config);
    EXPECT_FALSE(store.save(Kind::kUxs, "n7", "payload-bytes"));
    EXPECT_EQ(store.stats(Kind::kUxs).write_failures, 1u);
    EXPECT_EQ(store.stats(Kind::kUxs).writes, 0u);
    // No final file at all — a torn rename-without-flush would have
    // left one — and the temp was cleaned up.
    EXPECT_FALSE(fs::exists(store.path_for(Kind::kUxs, "n7")));
    std::size_t residue = 0;
    for (const auto& entry :
         fs::recursive_directory_iterator(config.root)) {
      if (entry.is_regular_file()) ++residue;
    }
    EXPECT_EQ(residue, 0u);
    // The sync stage sits between write and close: flush-before-rename
    // is on the path of every successful save.
    if (std::string_view(failing_stage) == "close") {
      EXPECT_EQ(observed, "open;write;sync;close;");
    }
  }
  // With no injected failure the same sequence of stages runs and the
  // save lands.
  DiskConfig config;
  config.root = fresh_dir("unflushed_none");
  std::string observed;
  config.fail_stage = [&observed](const char* stage) {
    observed += stage;
    observed += ";";
    return false;
  };
  DiskStore store(config);
  EXPECT_TRUE(store.save(Kind::kUxs, "n7", "payload-bytes"));
  EXPECT_EQ(observed, "open;write;sync;close;");
  EXPECT_TRUE(fs::exists(store.path_for(Kind::kUxs, "n7")));
}

TEST(DiskStore, UnusableRootDegradesGracefully) {
  DiskConfig config;
  // A root under a path that is a FILE cannot be created.
  const std::string blocker = fresh_dir("blocked") + "/file";
  write_file(blocker, "x");
  config.root = blocker + "/store";
  DiskStore store(config);
  EXPECT_FALSE(store.load(Kind::kUxs, "n5").has_value());
  EXPECT_FALSE(store.save(Kind::kUxs, "n5", "five"));
  EXPECT_EQ(store.stats(Kind::kUxs).write_failures, 1u);
}

TEST(DiskStore, ConcurrentWritersOneDirectorySettleOnCompleteFiles) {
  // Several stores (the in-process stand-in for several processes) on
  // ONE directory, racing writes to the same keys: every final file
  // must parse as one complete value — never interleaved bytes.
  const std::string root = fresh_dir("race");
  constexpr int kWriters = 4;
  constexpr int kKeys = 6;
  constexpr int kRounds = 8;
  std::vector<std::unique_ptr<DiskStore>> stores;
  for (int w = 0; w < kWriters; ++w) {
    DiskConfig config;
    config.root = root;
    stores.push_back(std::make_unique<DiskStore>(config));
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          // Deterministic payload per key (the real workload: artifacts
          // are pure functions of the key), large enough that a torn
          // write would be visible.
          const std::string payload(4096 + 97 * k, static_cast<char>('a' + k));
          ASSERT_TRUE(stores[static_cast<std::size_t>(w)]->save(
              Kind::kShrinkAllPairs, "key" + std::to_string(k), payload));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  DiskConfig config;
  config.root = root;
  DiskStore reader(config);
  for (int k = 0; k < kKeys; ++k) {
    const auto loaded =
        reader.load(Kind::kShrinkAllPairs, "key" + std::to_string(k));
    ASSERT_TRUE(loaded.has_value()) << k;
    EXPECT_EQ(*loaded,
              std::string(4096 + 97 * k, static_cast<char>('a' + k)));
  }
  // No temp droppings left behind.
  std::size_t files = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(root) / "shrink_all_pairs")) {
    EXPECT_EQ(entry.path().extension(), ".bin") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, static_cast<std::size_t>(kKeys));
}

TEST(DiskStore, TwoProcessesWritingOneStoreDir) {
  // The genuine two-process case (ISSUE 4 satellite): parent and child
  // race DIFFERENT payload sizes onto the same key; rename atomicity
  // must leave a file that parses completely as one of the two.
  const std::string root = fresh_dir("twoproc");
  const std::string small(1024, 's');
  const std::string large(1024 * 256, 'L');

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child process: no gtest assertions (they would double-report);
    // exit code carries success.
    DiskConfig config;
    config.root = root;
    DiskStore store(config);
    bool ok = true;
    for (int round = 0; round < 50; ++round) {
      ok = store.save(Kind::kUxs, "contended", small) && ok;
    }
    _exit(ok ? 0 : 1);
  }
  {
    DiskConfig config;
    config.root = root;
    DiskStore store(config);
    for (int round = 0; round < 50; ++round) {
      ASSERT_TRUE(store.save(Kind::kUxs, "contended", large));
    }
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  DiskConfig config;
  config.root = root;
  DiskStore reader(config);
  const auto final_value = reader.load(Kind::kUxs, "contended");
  ASSERT_TRUE(final_value.has_value());
  EXPECT_TRUE(*final_value == small || *final_value == large);
  EXPECT_EQ(reader.stats(Kind::kUxs).corrupt, 0u);
}

// ---- ArtifactCache two-tier integration -----------------------------

// A Shrink table stored by format version 1 (u32 cells) is a version
// mismatch, not corruption: the cache recomputes it and rewrites the
// file in the current format.
TEST(CacheStoreIntegration, Version1ShrinkFileIsRecomputedAndRewritten) {
  auto disk = std::make_shared<DiskStore>(
      DiskConfig{fresh_dir("version1"), kDefaultBuildSalt, false, {}});
  const graph::Graph g = families::path_graph(7);
  const views::AllPairsShrink expected = views::shrink_all_pairs(g);
  const std::string key = cache::ArtifactCache::disk_key(cache::fingerprint(g));
  write_file(disk->path_for(Kind::kShrinkAllPairs, key),
             version1_file(kDefaultBuildSalt, Kind::kShrinkAllPairs, key,
                           version1_shrink_payload(expected)));
  EXPECT_FALSE(disk->load(Kind::kShrinkAllPairs, key).has_value());
  EXPECT_EQ(disk->stats(Kind::kShrinkAllPairs).version_mismatch, 1u);
  EXPECT_EQ(disk->stats(Kind::kShrinkAllPairs).corrupt, 0u);

  cache::CacheConfig config;
  config.disk = disk;
  cache::ArtifactCache cache(config);
  const auto table = cache.all_pairs_shrink(g);
  EXPECT_EQ(table->n, expected.n);
  EXPECT_EQ(table->values, expected.values);
  EXPECT_EQ(table->pairs_explored, expected.pairs_explored);
  const DiskStats stats = disk->stats(Kind::kShrinkAllPairs);
  EXPECT_EQ(stats.version_mismatch, 2u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.writes, 1u);

  const auto rewritten = disk->load(Kind::kShrinkAllPairs, key);
  ASSERT_TRUE(rewritten.has_value());
  EXPECT_EQ(*rewritten, encode_all_pairs_shrink(expected));
  EXPECT_EQ(decode_all_pairs_shrink(*rewritten).values,
            views::shrink_all_pairs(g).values);
}

TEST(CacheStoreIntegration, WarmCacheSkipsEveryRecomputeIncludingUxs) {
  auto disk = std::make_shared<DiskStore>(
      DiskConfig{fresh_dir("twotier"), kDefaultBuildSalt, false, {}});
  const graph::Graph g = families::oriented_torus(3, 3);

  // Cold pass: one compute + one disk write per artifact kind.
  cache::CacheConfig cold_config;
  cold_config.disk = disk;
  cache::ArtifactCache cold(cold_config);
  const auto classes = cold.view_classes(g);
  const auto quotient = cold.quotient(g);
  const auto y = cold.uxs(5);
  const auto shr = cold.all_pairs_shrink(g);
  EXPECT_EQ(disk->stats(Kind::kViewClasses).writes, 1u);
  EXPECT_EQ(disk->stats(Kind::kQuotients).writes, 1u);
  EXPECT_EQ(disk->stats(Kind::kUxs).writes, 1u);
  EXPECT_EQ(disk->stats(Kind::kShrinkAllPairs).writes, 1u);
  const std::uint64_t verifications_after_cold =
      uxs::corpus_verification_count();

  // Warm pass through a FRESH memory cache (a second process, in
  // effect): every kind is served from disk, values are identical, and
  // — the acceptance bar — no UXS corpus verification runs.
  cache::CacheConfig warm_config;
  warm_config.disk = disk;
  cache::ArtifactCache warm(warm_config);
  EXPECT_EQ(warm.view_classes(g)->class_of, classes->class_of);
  EXPECT_EQ(warm.quotient(g)->class_count(), quotient->class_count());
  const auto y_warm = warm.uxs(5);
  ASSERT_EQ(y_warm->length(), y->length());
  EXPECT_TRUE(std::equal(y_warm->terms().begin(), y_warm->terms().end(),
                         y->terms().begin(), y->terms().end()));
  EXPECT_EQ(y_warm->provenance(), y->provenance());
  EXPECT_EQ(warm.all_pairs_shrink(g)->values, shr->values);

  EXPECT_EQ(uxs::corpus_verification_count(), verifications_after_cold);
  EXPECT_EQ(disk->stats(Kind::kViewClasses).hits, 1u);
  EXPECT_EQ(disk->stats(Kind::kQuotients).hits, 1u);
  EXPECT_EQ(disk->stats(Kind::kUxs).hits, 1u);
  EXPECT_EQ(disk->stats(Kind::kShrinkAllPairs).hits, 1u);
  // And the memory tier now shields the disk: repeated requests add no
  // disk traffic.
  (void)warm.uxs(5);
  EXPECT_EQ(disk->stats(Kind::kUxs).hits, 1u);
}

TEST(CacheStoreIntegration, CorruptStoreFileFallsBackToRecompute) {
  auto disk = std::make_shared<DiskStore>(
      DiskConfig{fresh_dir("fallback"), kDefaultBuildSalt, false, {}});
  const graph::Graph g = families::oriented_ring(6);
  const cache::GraphFingerprint fp = cache::fingerprint(g);

  cache::CacheConfig config;
  config.disk = disk;
  {
    cache::ArtifactCache cache(config);
    (void)cache.view_classes(g);
  }
  // Corrupt the stored artifact file.
  std::string path;
  for (const auto& entry : fs::recursive_directory_iterator(
           disk->config().root)) {
    if (entry.is_regular_file()) path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  write_file(path, "corrupted beyond recognition");

  cache::ArtifactCache again(config);
  const auto recomputed = again.view_classes(g, fp);
  EXPECT_EQ(recomputed->class_of,
            views::compute_view_classes(g).class_of);
  EXPECT_EQ(disk->stats(Kind::kViewClasses).corrupt, 1u);
  // The recompute healed the file on disk: a third cache hits it.
  cache::ArtifactCache healed(config);
  (void)healed.view_classes(g, fp);
  EXPECT_EQ(disk->stats(Kind::kViewClasses).hits, 1u);
}

TEST(CacheStoreIntegration, DisabledMemoryTierStillReadsThrough) {
  auto disk = std::make_shared<DiskStore>(
      DiskConfig{fresh_dir("nomem"), kDefaultBuildSalt, false, {}});
  cache::CacheConfig config;
  config.enabled = false;
  config.disk = disk;
  cache::ArtifactCache cache(config);
  const graph::Graph g = families::path_graph(5);
  const auto a = cache.view_classes(g);
  const auto b = cache.view_classes(g);
  EXPECT_EQ(a->class_of, b->class_of);
  // First request computed + wrote; the second was served from disk.
  EXPECT_EQ(disk->stats(Kind::kViewClasses).writes, 1u);
  EXPECT_EQ(disk->stats(Kind::kViewClasses).hits, 1u);
}

// ---- result log -----------------------------------------------------

ResultRecord sample_record(int i) {
  ResultRecord r;
  r.experiment_id = "exp_" + std::to_string(i);
  r.scale = "smoke";
  r.wall_micros = 1000u + static_cast<std::uint64_t>(i);
  r.items_total = 4;
  r.items_produced = 3;
  r.headers = {"graph", "value"};
  r.rows = {{"ring(6)", std::to_string(i)},
            {"path(5)", "x,y|z\"quoted\""},
            {"", ""}};
  return r;
}

TEST(ResultLog, RoundTripsRecords) {
  const std::string path = fresh_dir("log") + "/results.rdvl";
  {
    ResultLogWriter writer(path);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 3; ++i) writer.append(sample_record(i));
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ(writer.records_written(), 3u);
  }
  const std::vector<ResultRecord> read = read_result_log(path);
  ASSERT_EQ(read.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(encode_result_record(read[static_cast<std::size_t>(i)]),
              encode_result_record(sample_record(i)));
  }
}

TEST(ResultLog, EmptyLogIsValid) {
  const std::string path = fresh_dir("logempty") + "/results.rdvl";
  { ResultLogWriter writer(path); }
  EXPECT_TRUE(read_result_log(path).empty());
}

TEST(ResultLog, DetectsTruncationCorruptionAndBadHeader) {
  const std::string path = fresh_dir("logbad") + "/results.rdvl";
  {
    ResultLogWriter writer(path);
    for (int i = 0; i < 2; ++i) writer.append(sample_record(i));
  }
  const std::string bytes = read_file(path);

  // Tail truncation (torn final record).
  write_file(path, bytes.substr(0, bytes.size() - 5));
  EXPECT_THROW(read_result_log(path), CodecError);

  // One flipped byte in the middle of a record.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] =
      static_cast<char>(flipped[bytes.size() / 2] ^ 0x01);
  write_file(path, flipped);
  EXPECT_THROW(read_result_log(path), CodecError);

  // Foreign magic / version.
  write_file(path, "JUNK" + bytes.substr(4));
  EXPECT_THROW(read_result_log(path), CodecError);
  std::string wrong_version = bytes;
  wrong_version[4] = static_cast<char>(kResultLogVersion + 1);
  write_file(path, wrong_version);
  EXPECT_THROW(read_result_log(path), CodecError);

  // Missing file.
  EXPECT_THROW(read_result_log(path + ".nope"), CodecError);
}

TEST(Codec, AllPairsShrinkRoundTripsAndRejectsBadShape) {
  const graph::Graph g = families::random_connected(8, 9, 61);
  const views::AllPairsShrink a = views::shrink_all_pairs(g);
  const views::AllPairsShrink a2 =
      decode_all_pairs_shrink(encode_all_pairs_shrink(a));
  EXPECT_EQ(a.n, a2.n);
  EXPECT_EQ(a.values, a2.values);
  EXPECT_EQ(a.pairs_explored, a2.pairs_explored);
  EXPECT_EQ(encode_all_pairs_shrink(a), encode_all_pairs_shrink(a2));

  const std::string ok = encode_all_pairs_shrink(a);
  EXPECT_THROW(decode_all_pairs_shrink(ok.substr(0, ok.size() - 3)),
               CodecError);
  EXPECT_THROW(decode_all_pairs_shrink(ok + "z"), CodecError);
  EXPECT_THROW(decode_all_pairs_shrink(""), CodecError);
  // Well-formed stream whose table is not n x n.
  views::AllPairsShrink skewed = a;
  skewed.values.pop_back();
  EXPECT_THROW(decode_all_pairs_shrink(encode_all_pairs_shrink(skewed)),
               CodecError);
}

/// A symmetric 3 x 3 table: zero diagonal, Shrink(0, 1) = max_finite,
/// Shrink(1, 2) = max_finite / 2 and (0, 2) unreachable.
views::AllPairsShrink boundary_table(std::uint32_t max_finite) {
  constexpr std::uint32_t x = graph::kUnreachable;
  const std::uint32_t m = max_finite;
  const std::uint32_t h = max_finite / 2;
  views::AllPairsShrink a;
  a.n = 3;
  a.values = {0, m, x, m, 0, h, x, h, 0};
  a.pairs_explored = 5;
  return a;
}

/// path(3) plus an isolated node: every pair with node 3 is unreachable.
graph::Graph path3_and_isolated_node() {
  const graph::Graph path = families::path_graph(3);
  std::vector<std::vector<graph::HalfEdge>> adj(4);
  for (graph::Node v = 0; v < 3; ++v) {
    adj[v].assign(path.edges(v).begin(), path.edges(v).end());
  }
  return graph::Graph(std::move(adj), "path(3)+isolated");
}

/// A Shrink payload from its raw fields: u32 n, u32 width, the cells
/// given as bytes, u64 pairs_explored.
std::string shrink_payload(std::uint32_t n, std::uint32_t width,
                           std::string_view cells) {
  std::string out;
  reference_put(out, n);
  reference_put(out, width);
  out.append(cells);
  reference_put<std::uint64_t>(out, 0);
  return out;
}

TEST(Codec, AllPairsShrinkNarrowsToTheLeastWidthAtEveryBoundary) {
  struct Case {
    views::AllPairsShrink table;
    std::uint32_t width;
  };
  const Case cases[] = {
      {boundary_table(0), 1},
      {boundary_table(254), 1},
      {boundary_table(255), 2},
      {boundary_table(65534), 2},
      {boundary_table(65535), 4},
      {views::shrink_all_pairs(path3_and_isolated_node()), 1},
  };
  for (const Case& c : cases) {
    const views::AllPairsShrink& a = c.table;
    SCOPED_TRACE("width " + std::to_string(c.width) + ", Shrink(0,1) " +
                 std::to_string(a.at(0, 1)));
    const std::string bytes = encode_all_pairs_shrink(a);
    EXPECT_EQ(bytes.size(), 16 + std::size_t{a.n} * a.n * c.width);
    Decoder header(bytes);
    EXPECT_EQ(header.u32(), a.n);
    EXPECT_EQ(header.u32(), c.width);
    const views::AllPairsShrink back = decode_all_pairs_shrink(bytes);
    EXPECT_EQ(back.n, a.n);
    EXPECT_EQ(back.values, a.values);
    EXPECT_EQ(back.pairs_explored, a.pairs_explored);
    for (graph::Node u = 0; u < a.n; ++u) {
      for (graph::Node v = 0; v < a.n; ++v) {
        EXPECT_EQ(back.at(u, v), a.at(u, v)) << u << "," << v;
      }
    }
    EXPECT_EQ(encode_all_pairs_shrink(back), bytes);
  }
  const views::AllPairsShrink isolated =
      views::shrink_all_pairs(path3_and_isolated_node());
  EXPECT_EQ(isolated.at(0, 3), graph::kUnreachable);
  EXPECT_EQ(isolated.at(3, 3), 0u);
}

TEST(Codec, AllPairsShrinkDecoderRejectsNonCanonicalTables) {
  const std::string ok = encode_all_pairs_shrink(boundary_table(7));
  ASSERT_NO_THROW(decode_all_pairs_shrink(ok));
  // Unknown widths, with a table the right size for each.
  for (const std::uint32_t width : {0u, 3u, 8u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    EXPECT_THROW(
        decode_all_pairs_shrink(shrink_payload(3, width,
                                               std::string(9 * width, '\0'))),
        CodecError);
  }
  // Wider than the largest finite value needs: 10 at width 2, 300 at
  // width 4, and a table with no finite value above 0 at width 2.
  std::string cells2;
  for (const std::uint16_t v : {0, 10, 10, 0}) reference_put(cells2, v);
  EXPECT_THROW(decode_all_pairs_shrink(shrink_payload(2, 2, cells2)),
               CodecError);
  std::string cells4;
  for (const std::uint32_t v : {0u, 300u, 300u, 0u}) {
    reference_put(cells4, v);
  }
  EXPECT_THROW(decode_all_pairs_shrink(shrink_payload(2, 4, cells4)),
               CodecError);
  std::string zero_unreachable;
  for (const std::uint16_t v : {0, 0xFFFF, 0xFFFF, 0}) {
    reference_put(zero_unreachable, v);
  }
  EXPECT_THROW(decode_all_pairs_shrink(shrink_payload(2, 2, zero_unreachable)),
               CodecError);
  // n * n * width overflows 64 bits: to 0 for n = 2^31 at width 4, and
  // past any input for n = 2^32 - 1.
  EXPECT_THROW(decode_all_pairs_shrink(shrink_payload(0x8000'0000u, 4, "")),
               CodecError);
  EXPECT_THROW(decode_all_pairs_shrink(
                   shrink_payload(0xFFFF'FFFFu, 4, std::string(64, '\0'))),
               CodecError);
  // A nonzero diagonal cell.
  for (const std::size_t diagonal : {0u, 4u, 8u}) {
    views::AllPairsShrink bad = boundary_table(7);
    bad.values[diagonal] = 1;
    EXPECT_THROW(decode_all_pairs_shrink(encode_all_pairs_shrink(bad)),
                 CodecError)
        << "cell " << diagonal;
  }
}

TEST(LogTools, CsvAndJsonRenderingsAreWallStableByDefault) {
  std::vector<ResultRecord> run_a = {sample_record(0), sample_record(1)};
  std::vector<ResultRecord> run_b = run_a;
  run_b[0].wall_micros = 999999;  // same tables, different timing

  EXPECT_EQ(render_log_csv(run_a), render_log_csv(run_b));
  EXPECT_EQ(render_log_json(run_a), render_log_json(run_b));
  EXPECT_NE(render_log_csv(run_a, /*include_wall=*/true),
            render_log_csv(run_b, /*include_wall=*/true));

  const std::string csv = render_log_csv(run_a);
  EXPECT_NE(csv.find("# record 0: exp_0"), std::string::npos);
  EXPECT_NE(csv.find("graph,value"), std::string::npos);
  const std::string json = render_log_json(run_a);
  EXPECT_NE(json.find("\"experiment_id\": \"exp_0\""), std::string::npos);
  // The quoted-cell row must survive JSON escaping.
  EXPECT_NE(json.find("x,y|z\\\"quoted\\\""), std::string::npos);
}

TEST(LogTools, JsonExportEscapesControlBytesInRecordFields) {
  // experiment_id and scale come from a log file on disk, so any byte
  // may appear; a raw control byte would make the export invalid JSON.
  ResultRecord record = sample_record(0);
  record.experiment_id = "exp\x01id";
  record.scale = "sm\x1foke";
  const std::string json = render_log_json({record});
  EXPECT_NE(json.find("\"experiment_id\": \"exp\\u0001id\""),
            std::string::npos);
  EXPECT_NE(json.find("\"scale\": \"sm\\u001foke\""), std::string::npos);
  for (const char c : json) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);
  }
}

TEST(LogTools, DiffIgnoresWallByDefaultAndCatchesRealDivergence) {
  std::vector<ResultRecord> run_a = {sample_record(0), sample_record(1)};
  std::vector<ResultRecord> run_b = run_a;
  run_b[1].wall_micros += 12345;

  EXPECT_TRUE(diff_logs(run_a, run_b).identical);
  const LogDiff strict = diff_logs(run_a, run_b, /*ignore_wall=*/false);
  EXPECT_FALSE(strict.identical);
  EXPECT_FALSE(strict.report.empty());

  // A single changed cell is a real divergence under either mode.
  run_b[1].wall_micros = run_a[1].wall_micros;
  run_b[1].rows[0][1] = "changed";
  const LogDiff cell = diff_logs(run_a, run_b);
  EXPECT_FALSE(cell.identical);
  EXPECT_NE(cell.report.find("exp_1"), std::string::npos);

  // Length mismatch reports counts instead of walking records.
  run_b.pop_back();
  const LogDiff len = diff_logs(run_a, run_b);
  EXPECT_FALSE(len.identical);
  EXPECT_FALSE(len.report.empty());
}

// ---- hostile bytes --------------------------------------------------
//
// Seeded mutations of valid encodings — bit flips, truncations,
// insertions and overwritten length fields — fed to every decoder, the
// result-log reader and the disk store. A decoder may only throw
// CodecError or accept bytes that are themselves the canonical encoding
// of some value; a mutated disk store file is always a miss, and a
// mutated result log is rejected unless it was cut between records.
// Anything else — another exception, a crash, a sanitizer report —
// fails the suite, which the ASan and UBSan jobs run unchanged.

constexpr int kMutationsPerInput = 1500;

/// Values written over 4- or 8-byte windows: counts just past the
/// data, counts that overflow size arithmetic, zero.
constexpr std::uint64_t kHostileLengths[] = {
    0,           1,          7,           8,
    255,         65'536,     0xFFFF'FFFFu, 0x1'0000'0000ull,
    1ull << 61,  1ull << 63, ~0ull,        ~0ull - 7};

/// One seeded mutation of `bytes`; `focus` bytes from the front are
/// hit half the time (headers and leading length fields live there).
std::string mutate(const std::string& bytes, std::size_t focus,
                   support::SplitMix64& rng) {
  std::string out = bytes;
  const auto offset = [&](std::size_t size) -> std::size_t {
    if (size == 0) return 0;
    const std::size_t window =
        rng.next_below(2) == 0 && focus > 0 ? std::min(focus, size) : size;
    return static_cast<std::size_t>(rng.next_below(window));
  };
  switch (rng.next_below(4)) {
    case 0: {  // flip one bit
      if (out.empty()) break;
      const std::size_t at = offset(out.size());
      out[at] = static_cast<char>(out[at] ^ (1 << rng.next_below(8)));
      break;
    }
    case 1:  // truncate
      out.resize(static_cast<std::size_t>(rng.next_below(out.size() + 1)));
      break;
    case 2: {  // insert 1..8 bytes
      const std::size_t at =
          static_cast<std::size_t>(rng.next_below(out.size() + 1));
      std::string junk(1 + rng.next_below(8), '\0');
      for (char& c : junk) c = static_cast<char>(rng.next());
      out.insert(at, junk);
      break;
    }
    default: {  // overwrite a little-endian length-sized window
      const std::size_t width = rng.next_below(2) == 0 ? 4 : 8;
      if (out.size() < width) break;
      const std::size_t at = offset(out.size() - width + 1);
      const std::uint64_t value =
          kHostileLengths[rng.next_below(std::size(kHostileLengths))];
      for (std::size_t b = 0; b < width; ++b) {
        out[at + b] = static_cast<char>((value >> (8 * b)) & 0xFF);
      }
      break;
    }
  }
  return out;
}

/// Decodes every mutation of `valid`; an accepted mutation must be the
/// canonical encoding of what it decoded to.
template <class T>
void fuzz_decoder(const std::string& valid,
                  const std::function<T(std::string_view)>& decode,
                  const std::function<std::string(const T&)>& encode,
                  std::uint64_t seed) {
  ASSERT_EQ(encode(decode(valid)), valid);
  support::SplitMix64 rng(seed);
  int rejected = 0;
  for (int i = 0; i < kMutationsPerInput; ++i) {
    const std::string bytes = mutate(valid, 24, rng);
    try {
      const T value = decode(bytes);
      EXPECT_EQ(encode(value), bytes) << "mutation " << i;
    } catch (const CodecError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " threw " << e.what();
    }
  }
  EXPECT_GT(rejected, kMutationsPerInput / 2);
}

TEST(CodecFuzz, UxsDecoder) {
  for (const std::size_t length : {0u, 3u, 40u}) {
    fuzz_decoder<uxs::Uxs>(
        encode_uxs(uxs::Uxs::pseudo_random(length, 7 + length)), decode_uxs,
        encode_uxs, 0xF00D + length);
  }
}

TEST(CodecFuzz, ViewClassAndQuotientDecoders) {
  for (const graph::Graph& g :
       {families::oriented_ring(6), families::random_connected(9, 4, 13),
        families::symmetric_double_tree(1, 1)}) {
    const views::ViewClasses classes = views::compute_view_classes(g);
    fuzz_decoder<views::ViewClasses>(encode_view_classes(classes),
                                     decode_view_classes, encode_view_classes,
                                     0xC1A55 + g.size());
    fuzz_decoder<views::QuotientGraph>(
        encode_quotient(views::build_quotient(g, classes)), decode_quotient,
        encode_quotient, 0x0B0E + g.size());
  }
}

TEST(CodecFuzz, AllPairsShrinkDecoder) {
  for (const graph::Graph& g :
       {families::path_graph(3), families::random_connected(8, 9, 61)}) {
    fuzz_decoder<views::AllPairsShrink>(
        encode_all_pairs_shrink(views::shrink_all_pairs(g)),
        decode_all_pairs_shrink, encode_all_pairs_shrink, 0x5A + g.size());
  }
  // Two bytes per cell.
  fuzz_decoder<views::AllPairsShrink>(
      encode_all_pairs_shrink(boundary_table(300)), decode_all_pairs_shrink,
      encode_all_pairs_shrink, 0x5A2);
}

TEST(CodecFuzz, ResultRecordDecoder) {
  fuzz_decoder<ResultRecord>(encode_result_record(sample_record(3)),
                             decode_result_record, encode_result_record,
                             0x12E5);
}

TEST(CodecFuzz, ResultLogReaderRejectsEveryMutation) {
  const std::string path = fresh_dir("fuzz_log") + "/results.rdvl";
  {
    ResultLogWriter writer(path);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 3; ++i) writer.append(sample_record(i));
  }
  const std::string valid = read_file(path);
  support::SplitMix64 rng(0x106);
  for (int i = 0; i < kMutationsPerInput; ++i) {
    const std::string bytes = mutate(valid, 8, rng);
    write_file(path, bytes);
    try {
      // Only a cut exactly between records leaves a valid (shorter)
      // log: its records are the first ones written.
      const std::vector<ResultRecord> records = read_result_log(path);
      EXPECT_TRUE(valid.compare(0, bytes.size(), bytes) == 0)
          << "mutation " << i;
      ASSERT_LE(records.size(), 3u);
      for (std::size_t r = 0; r < records.size(); ++r) {
        EXPECT_EQ(encode_result_record(records[r]),
                  encode_result_record(sample_record(static_cast<int>(r))));
      }
    } catch (const CodecError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " threw " << e.what();
    }
  }
}

TEST(CodecFuzz, DiskStoreMissesOnEveryMutatedFile) {
  DiskConfig config;
  config.root = fresh_dir("fuzz_disk");
  DiskStore store(config);
  const std::string payload =
      encode_uxs(uxs::Uxs::pseudo_random(12, 0xD15C));
  ASSERT_TRUE(store.save(Kind::kUxs, "n6", payload));
  const std::string path = store.path_for(Kind::kUxs, "n6");
  const std::string valid = read_file(path);
  // Magic, version, salt, kind and key echo, payload size and checksum.
  const std::size_t header = valid.size() - payload.size();
  support::SplitMix64 rng(0xD15C);
  int mutated = 0;
  for (int i = 0; i < kMutationsPerInput; ++i) {
    const std::string bytes = mutate(valid, header, rng);
    if (bytes == valid) continue;
    ++mutated;
    write_file(path, bytes);
    try {
      EXPECT_FALSE(store.load(Kind::kUxs, "n6").has_value())
          << "mutation " << i;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " threw " << e.what();
    }
  }
  const DiskStats stats = store.stats(Kind::kUxs);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.corrupt + stats.version_mismatch,
            static_cast<std::uint64_t>(mutated));
  // The untouched file still loads.
  write_file(path, valid);
  const auto loaded = store.load(Kind::kUxs, "n6");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);
}

}  // namespace
}  // namespace rdv::store
