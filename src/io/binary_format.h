// Binary model snapshots — the "# tms-model v1" format (docs/DISTRIBUTED.md).
//
// A snapshot is a fixed-width little-endian image of a parsed model,
// fingerprinted end to end so that any truncation or bit flip after the
// magic line is rejected loudly (the loader then falls back to the text
// format). Layout:
//
//     "# tms-model v1\n"          15-byte magic (also a valid text comment)
//     u64  fp                     FNV-1a over every byte after this field
//     u8   kind                   1 = markov-sequence (the only kind)
//     u8   version                payload layout version (currently 1)
//     u64  source_fp              FNV-1a of the source *text* bytes the
//                                 snapshot was built from (0 = standalone)
//     u64  payload_size
//     payload                     the Markov payload, see binary_format.cc
//
// The file must be exactly this long — trailing bytes are corruption.
// All multi-byte integers are little-endian and naturally mmap-able;
// doubles are IEEE-754 bit images, so decode(encode(m)) reproduces the
// exact probabilities and `io::FormatMarkovSequence` output of `m`.
//
// The snapshot *sibling* flow: next to a text model `m.tms` the loader
// keeps `m.tms.tmsb`. A sibling whose source_fp matches the current text
// bytes is decoded instead of parsing the text (counter
// io.snapshot_loaded); a stale or corrupt sibling is rejected
// (io.snapshot_rejected) and rebuilt best-effort after the text parse
// (io.snapshot_saved). This is what makes tms_server cold-start stop
// re-parsing text. Queries have no snapshot: their one persisted form is
// their text.

#ifndef TMS_IO_BINARY_FORMAT_H_
#define TMS_IO_BINARY_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "markov/markov_sequence.h"

namespace tms::io {

/// The snapshot magic line. Starts with '#' so a binary file fed to the
/// text parser reads as a comment followed by garbage — a clean error,
/// never a half-parsed model.
inline constexpr std::string_view kBinaryMagic = "# tms-model v1\n";

/// 64-bit FNV-1a over `bytes`.
uint64_t Fnv1a64(std::string_view bytes);

/// True iff `bytes` starts with the snapshot magic.
bool LooksBinary(std::string_view bytes);

/// Encodes a Markov sequence. Distinct transition steps are stored once
/// with per-index step ids, so a homogeneous length-n snapshot costs one
/// σ² matrix; exact rationals (has_exact()) are preserved as strings.
std::string EncodeMarkovSequence(const markov::MarkovSequence& mu,
                                 uint64_t source_fp = 0);

/// A decoded snapshot.
struct DecodedModel {
  uint64_t source_fp = 0;
  markov::MarkovSequence markov;
};

/// Decodes a snapshot, verifying the fingerprint first: truncated,
/// extended, or bit-flipped input, and any kind but 1, is InvalidArgument
/// (counted as io.snapshot_rejected), never a mangled model.
StatusOr<DecodedModel> DecodeModel(std::string_view bytes);

/// Where the snapshot sibling of text model `path` lives: `path` + ".tmsb".
std::string SnapshotPath(const std::string& path);

/// Loads a Markov sequence model file through the snapshot flow described
/// above. `path` may itself be a binary snapshot (loaded directly). For a
/// text file, a matching `.tmsb` sibling short-circuits the parse; with
/// `refresh_snapshot`, a missing/stale/corrupt sibling is rewritten
/// best-effort after parsing (failures to write are ignored).
StatusOr<markov::MarkovSequence> LoadMarkovSequenceFile(
    const std::string& path, bool refresh_snapshot);

}  // namespace tms::io

#endif  // TMS_IO_BINARY_FORMAT_H_
