// Binary model snapshots (io/binary_format.h): lossless round trips for
// every committed model plus randomized ones, adversarial rejection
// (truncation, bit flips, fingerprint mismatch, trailing bytes, unknown
// kinds), and the `.tmsb` sibling flow LoadMarkovSequenceFile drives for
// tms_server cold starts.

#include "io/binary_format.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "io/text_format.h"
#include "markov/markov_sequence.h"
#include "obs/obs.h"
#include "test_util.h"
#include "workload/random_models.h"

#ifndef TMS_GOLDEN_DATA_DIR
#define TMS_GOLDEN_DATA_DIR "tests/golden/data"
#endif
#ifndef TMS_EXAMPLES_DATA_DIR
#define TMS_EXAMPLES_DATA_DIR "examples/data"
#endif

namespace tms {
namespace {

using testing::SeedTrace;
using testing::TestSeed;

// Every committed text model, by format. (Globbing would pick up the
// generated .tmsb siblings; the corpus is small enough to list.)
std::vector<std::string> MarkovFiles() {
  return {
      std::string(TMS_GOLDEN_DATA_DIR) + "/fig1.tms",
      std::string(TMS_GOLDEN_DATA_DIR) + "/motif.tms",
      std::string(TMS_EXAMPLES_DATA_DIR) + "/hospital.tms",
  };
}

markov::MarkovSequence ParseMarkovFile(const std::string& path) {
  auto text = io::ReadFile(path);
  EXPECT_TRUE(text.ok()) << path << ": " << text.status().ToString();
  auto mu = io::ParseMarkovSequence(*text);
  EXPECT_TRUE(mu.ok()) << path << ": " << mu.status().ToString();
  return std::move(mu).value();
}

// The round-trip contract: decode(encode(m)) reproduces the canonical
// text form byte for byte — doubles are bit images, so even the %.17g
// spellings agree.
void ExpectMarkovRoundTrip(const markov::MarkovSequence& mu,
                           const std::string& context) {
  const std::string bytes = io::EncodeMarkovSequence(mu, /*source_fp=*/42);
  ASSERT_TRUE(io::LooksBinary(bytes)) << context;
  auto decoded = io::DecodeModel(bytes);
  ASSERT_TRUE(decoded.ok()) << context << ": " << decoded.status().ToString();
  EXPECT_EQ(decoded->source_fp, 42u) << context;
  EXPECT_EQ(io::FormatMarkovSequence(decoded->markov),
            io::FormatMarkovSequence(mu))
      << context;
  EXPECT_EQ(decoded->markov.has_exact(), mu.has_exact()) << context;
}

TEST(BinaryFormatTest, RoundTripsEveryCommittedMarkovModel) {
  for (const std::string& path : MarkovFiles()) {
    ExpectMarkovRoundTrip(ParseMarkovFile(path), path);
  }
}

TEST(BinaryFormatTest, RoundTripFuzzRandomModels) {
  const uint64_t seed = TestSeed(20260809);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  for (int round = 0; round < 20; ++round) {
    const int sigma = static_cast<int>(rng.UniformInt(2, 6));
    const int n = static_cast<int>(rng.UniformInt(2, 7));
    const int support = static_cast<int>(rng.UniformInt(1, sigma));
    markov::MarkovSequence mu =
        (round % 2 == 0)
            ? workload::RandomMarkovSequence(sigma, n, support, rng)
            : workload::RandomHomogeneousMarkovSequence(sigma, n, support,
                                                        rng);
    ExpectMarkovRoundTrip(mu, "round " + std::to_string(round));
  }
}

TEST(BinaryFormatTest, ExactRationalModelsSurviveTheRoundTrip) {
  // fig1 re-parsed with exact arithmetic: the snapshot must preserve the
  // rationals, not just their double shadows.
  auto text = io::ReadFile(std::string(TMS_GOLDEN_DATA_DIR) + "/fig1.tms");
  ASSERT_TRUE(text.ok());
  auto mu = io::ParseMarkovSequence(*text);
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mu->has_exact());
  ExpectMarkovRoundTrip(*mu, "fig1 exact");
}

TEST(BinaryFormatTest, EveryTruncationIsRejected) {
  const std::string bytes = io::EncodeMarkovSequence(
      ParseMarkovFile(std::string(TMS_GOLDEN_DATA_DIR) + "/fig1.tms"));
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = io::DecodeModel(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " accepted";
  }
}

TEST(BinaryFormatTest, TrailingBytesAreRejected) {
  std::string bytes = io::EncodeMarkovSequence(
      ParseMarkovFile(std::string(TMS_GOLDEN_DATA_DIR) + "/fig1.tms"));
  bytes += '\0';
  EXPECT_FALSE(io::DecodeModel(bytes).ok());
}

TEST(BinaryFormatTest, UnknownKindIsRejected) {
  // Kind 1 (markov-sequence) is the only kind: any other kind byte,
  // resealed under a valid fingerprint, is rejected. Queries have no
  // binary image (kind 2 included); their one persisted form is text.
  const std::string bytes = io::EncodeMarkovSequence(
      ParseMarkovFile(std::string(TMS_GOLDEN_DATA_DIR) + "/fig1.tms"));
  const size_t fp_at = io::kBinaryMagic.size();
  const size_t kind_at = fp_at + 8;
  for (int kind : {0, 2, 3}) {
    std::string other = bytes;
    other[kind_at] = static_cast<char>(kind);
    const uint64_t fp = io::Fnv1a64(std::string_view(other).substr(kind_at));
    for (size_t i = 0; i < 8; ++i) {
      other[fp_at + i] = static_cast<char>((fp >> (8 * i)) & 0xff);
    }
    auto decoded = io::DecodeModel(other);
    ASSERT_FALSE(decoded.ok()) << "kind " << kind << " accepted";
    EXPECT_NE(decoded.status().ToString().find("unknown model kind"),
              std::string::npos)
        << decoded.status();
  }
}

TEST(BinaryFormatTest, EveryBitFlipIsRejected) {
  // A flip inside the magic demotes the file to (invalid) text; a flip
  // anywhere else breaks the end-to-end fingerprint. Either way no flip
  // may ever decode — silently mangled probabilities are the one failure
  // mode a fingerprinted format exists to rule out.
  const std::string bytes = io::EncodeMarkovSequence(
      ParseMarkovFile(std::string(TMS_GOLDEN_DATA_DIR) + "/fig1.tms"));
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      EXPECT_FALSE(io::DecodeModel(corrupt).ok())
          << "flip at byte " << i << " bit " << bit << " accepted";
    }
  }
}

TEST(BinaryFormatTest, TextInputIsNotBinary) {
  auto text = io::ReadFile(std::string(TMS_GOLDEN_DATA_DIR) + "/fig1.tms");
  ASSERT_TRUE(text.ok());
  EXPECT_FALSE(io::LooksBinary(*text));
  EXPECT_FALSE(io::DecodeModel(*text).ok());
}

TEST(BinaryFormatTest, SnapshotFedToTextParserFailsCleanly) {
  // The magic starts with '#', so the text parser sees a comment and then
  // garbage — a parse error, never a half-parsed model.
  const std::string bytes = io::EncodeMarkovSequence(
      ParseMarkovFile(std::string(TMS_GOLDEN_DATA_DIR) + "/fig1.tms"));
  EXPECT_FALSE(io::ParseMarkovSequence(bytes).ok());
}

// ---------------------------------------------------------------------------
// The sibling flow: LoadMarkovSequenceFile(path, refresh_snapshot).

class SnapshotFlowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs every case as its own process, concurrently under -j, so
    // each case (and each process) gets a directory of its own.
    dir_ = ::testing::TempDir() + "binary_format_test." +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "." + std::to_string(getpid());
    RemoveFiles();
    // TempDir always exists; our subdir may not.
    mkdir_ok_ = (mkdir(dir_.c_str(), 0755) == 0 || errno == EEXIST);
    ASSERT_TRUE(mkdir_ok_);
    path_ = dir_ + "/m.tms";
    obs::SetEnabled(true);
  }

  void TearDown() override {
    RemoveFiles();
    (void)rmdir(dir_.c_str());
  }

  void RemoveFiles() {
    for (const char* name : {"/m.tms", "/m.tms.tmsb", "/m.tmsb_standalone"}) {
      (void)std::remove((dir_ + name).c_str());
    }
  }

  void WriteText(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  std::string ReadAll(const std::string& path) {
    auto text = io::ReadFile(path);
    EXPECT_TRUE(text.ok()) << path;
    return text.ok() ? *text : std::string();
  }

  bool Exists(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return false;
    std::fclose(f);
    return true;
  }

  std::string dir_;
  std::string path_;
  bool mkdir_ok_ = false;
};

const char kModelText[] =
    "markov-sequence\n"
    "nodes a b\n"
    "length 3\n"
    "initial a 1/2 b 1/2\n"
    "transition 1 a -> a 1/4 b 3/4\n"
    "transition 1 b -> a 1 \n"
    "transition 2 a -> b 1\n"
    "transition 2 b -> a 1/2 b 1/2\n"
    "end\n";

const char kOtherModelText[] =
    "markov-sequence\n"
    "nodes a b\n"
    "length 2\n"
    "initial a 1\n"
    "transition 1 a -> b 1\n"
    "transition 1 b -> b 1\n"
    "end\n";

TEST_F(SnapshotFlowTest, FirstLoadParsesTextAndWritesSibling) {
  WriteText(path_, kModelText);
  auto mu = io::LoadMarkovSequenceFile(path_, /*refresh_snapshot=*/true);
  ASSERT_TRUE(mu.ok()) << mu.status().ToString();
  EXPECT_TRUE(Exists(io::SnapshotPath(path_)));
  // The sibling is a valid snapshot of exactly this model, tied to the
  // text bytes it came from.
  auto decoded = io::DecodeModel(ReadAll(io::SnapshotPath(path_)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->source_fp, io::Fnv1a64(kModelText));
  EXPECT_EQ(io::FormatMarkovSequence(decoded->markov),
            io::FormatMarkovSequence(*mu));
}

TEST_F(SnapshotFlowTest, SecondLoadUsesTheSnapshot) {
  WriteText(path_, kModelText);
  auto first = io::LoadMarkovSequenceFile(path_, true);
  ASSERT_TRUE(first.ok());
#if TMS_OBS_ACTIVE
  const int64_t loaded_before =
      obs::Registry::Global().counter("io.snapshot_loaded").value();
#endif
  auto second = io::LoadMarkovSequenceFile(path_, true);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(io::FormatMarkovSequence(*second),
            io::FormatMarkovSequence(*first));
#if TMS_OBS_ACTIVE
  EXPECT_GT(obs::Registry::Global().counter("io.snapshot_loaded").value(),
            loaded_before);
#endif
}

TEST_F(SnapshotFlowTest, StaleSnapshotIsRejectedAndRebuilt) {
  WriteText(path_, kModelText);
  ASSERT_TRUE(io::LoadMarkovSequenceFile(path_, true).ok());
  // The text changes under the sibling: the old snapshot must lose.
  WriteText(path_, kOtherModelText);
  auto mu = io::LoadMarkovSequenceFile(path_, true);
  ASSERT_TRUE(mu.ok()) << mu.status().ToString();
  EXPECT_EQ(mu->length(), 2);
  auto decoded = io::DecodeModel(ReadAll(io::SnapshotPath(path_)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->source_fp, io::Fnv1a64(kOtherModelText));
}

TEST_F(SnapshotFlowTest, CorruptSnapshotFallsBackToText) {
  WriteText(path_, kModelText);
  ASSERT_TRUE(io::LoadMarkovSequenceFile(path_, true).ok());
  std::string snapshot = ReadAll(io::SnapshotPath(path_));
  snapshot[snapshot.size() / 2] ^= 0x40;
  WriteText(io::SnapshotPath(path_), snapshot);
#if TMS_OBS_ACTIVE
  const int64_t rejected_before =
      obs::Registry::Global().counter("io.snapshot_rejected").value();
#endif
  auto mu = io::LoadMarkovSequenceFile(path_, true);
  ASSERT_TRUE(mu.ok()) << mu.status().ToString();
  EXPECT_EQ(mu->length(), 3);
#if TMS_OBS_ACTIVE
  EXPECT_GT(obs::Registry::Global().counter("io.snapshot_rejected").value(),
            rejected_before);
#endif
  // The corrupt sibling was rebuilt, not served.
  EXPECT_TRUE(io::DecodeModel(ReadAll(io::SnapshotPath(path_))).ok());
}

TEST_F(SnapshotFlowTest, NoRefreshLeavesNoSibling) {
  WriteText(path_, kModelText);
  auto mu = io::LoadMarkovSequenceFile(path_, /*refresh_snapshot=*/false);
  ASSERT_TRUE(mu.ok());
  EXPECT_FALSE(Exists(io::SnapshotPath(path_)));
}

TEST_F(SnapshotFlowTest, BinaryFileLoadsDirectly) {
  WriteText(path_, kModelText);
  auto parsed = io::LoadMarkovSequenceFile(path_, false);
  ASSERT_TRUE(parsed.ok());
  const std::string bin_path = dir_ + "/m.tmsb_standalone";
  WriteText(bin_path, io::EncodeMarkovSequence(*parsed));
  auto mu = io::LoadMarkovSequenceFile(bin_path, false);
  ASSERT_TRUE(mu.ok()) << mu.status().ToString();
  EXPECT_EQ(io::FormatMarkovSequence(*mu), io::FormatMarkovSequence(*parsed));
}

}  // namespace
}  // namespace tms
