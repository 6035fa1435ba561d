#include "io/binary_format.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "io/text_format.h"
#include "numeric/rational.h"
#include "obs/obs.h"
#include "strings/alphabet.h"

namespace tms::io {

namespace {

constexpr uint8_t kKindMarkov = 1;
constexpr uint8_t kPayloadVersion = 1;

// ---- little-endian byte writer ------------------------------------------

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutF64(double v, std::string* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

void PutString(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

// ---- bounds-checked reader ----------------------------------------------

class Reader {
 public:
  explicit Reader(std::string_view bytes) : rest_(bytes) {}

  bool ReadU8(uint8_t* v) {
    if (rest_.size() < 1) return false;
    *v = static_cast<uint8_t>(rest_[0]);
    rest_.remove_prefix(1);
    return true;
  }

  bool ReadU32(uint32_t* v) {
    uint64_t wide;
    if (!ReadLE(4, &wide)) return false;
    *v = static_cast<uint32_t>(wide);
    return true;
  }

  bool ReadU64(uint64_t* v) { return ReadLE(8, v); }

  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadLE(8, &bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  // Strings and alphabets are small; cap lengths at what the remaining
  // input could possibly hold so a corrupt length can't trigger a huge
  // allocation before the bounds check fires.
  bool ReadString(std::string* s) {
    uint32_t len;
    if (!ReadU32(&len)) return false;
    if (len > rest_.size()) return false;
    s->assign(rest_.substr(0, len));
    rest_.remove_prefix(len);
    return true;
  }

  bool empty() const { return rest_.empty(); }
  size_t remaining() const { return rest_.size(); }

 private:
  bool ReadLE(int width, uint64_t* v) {
    if (rest_.size() < static_cast<size_t>(width)) return false;
    uint64_t out = 0;
    for (int i = 0; i < width; ++i) {
      out |= static_cast<uint64_t>(static_cast<unsigned char>(rest_[i]))
             << (8 * i);
    }
    rest_.remove_prefix(width);
    *v = out;
    return true;
  }

  std::string_view rest_;
};

Status Reject(std::string msg) {
  TMS_OBS_COUNT("io.snapshot_rejected", 1);
  return Status::InvalidArgument("binary model: " + std::move(msg));
}

void PutAlphabet(const Alphabet& alphabet, std::string* out) {
  PutU32(static_cast<uint32_t>(alphabet.size()), out);
  for (const std::string& name : alphabet.names()) PutString(name, out);
}

bool ReadAlphabet(Reader* r, StatusOr<Alphabet>* alphabet) {
  uint32_t size;
  if (!r->ReadU32(&size)) return false;
  std::vector<std::string> names;
  names.reserve(size);
  for (uint32_t i = 0; i < size; ++i) {
    std::string name;
    if (!r->ReadString(&name)) return false;
    names.push_back(std::move(name));
  }
  *alphabet = Alphabet::FromNames(names);
  return true;
}

// Wraps a Markov payload in the fingerprinted container.
std::string Seal(uint64_t source_fp, std::string payload) {
  std::string body;
  body.reserve(payload.size() + 18);
  PutU8(kKindMarkov, &body);
  PutU8(kPayloadVersion, &body);
  PutU64(source_fp, &body);
  PutU64(payload.size(), &body);
  body += payload;

  std::string out;
  out.reserve(kBinaryMagic.size() + 8 + body.size());
  out.append(kBinaryMagic);
  PutU64(Fnv1a64(body), &out);
  out += body;
  return out;
}

// ---- Markov sequence payload --------------------------------------------
//
//   alphabet                     (u32 count, strings)
//   u32 length                   n
//   u8  has_exact
//   |Σ| f64                      initial distribution
//   u32 distinct_steps
//   (n-1) u32                    step id per transition index
//   distinct_steps × σ² f64      dense matrices, row-major
//   if has_exact:
//     |Σ| strings                exact initial rationals
//     (n-1) × σ² strings         exact transition rationals, per index

std::string EncodeMarkovPayload(const markov::MarkovSequence& mu) {
  const size_t sigma = mu.nodes().size();
  const int n = mu.length();
  std::string payload;
  PutAlphabet(mu.nodes(), &payload);
  PutU32(static_cast<uint32_t>(n), &payload);
  PutU8(mu.has_exact() ? 1 : 0, &payload);
  for (size_t s = 0; s < sigma; ++s) {
    PutF64(mu.Initial(static_cast<Symbol>(s)), &payload);
  }
  // Distinct steps in first-appearance order, indices mapped to step ids —
  // this is what keeps a homogeneous length-n snapshot at one σ² matrix.
  std::vector<const void*> distinct;
  std::vector<uint32_t> step_of_index(n > 1 ? n - 1 : 0);
  std::vector<int> representative;  // a transition index using each step
  for (int i = 1; i < n; ++i) {
    const void* id = mu.TransitionStepIdentity(i);
    uint32_t step = 0;
    for (; step < distinct.size(); ++step) {
      if (distinct[step] == id) break;
    }
    if (step == distinct.size()) {
      distinct.push_back(id);
      representative.push_back(i);
    }
    step_of_index[i - 1] = step;
  }
  PutU32(static_cast<uint32_t>(distinct.size()), &payload);
  for (uint32_t step : step_of_index) PutU32(step, &payload);
  for (int i : representative) {
    for (size_t s = 0; s < sigma; ++s) {
      for (size_t t = 0; t < sigma; ++t) {
        PutF64(mu.Transition(i, static_cast<Symbol>(s),
                             static_cast<Symbol>(t)),
               &payload);
      }
    }
  }
  if (mu.has_exact()) {
    for (size_t s = 0; s < sigma; ++s) {
      PutString(mu.InitialExact(static_cast<Symbol>(s)).ToString(), &payload);
    }
    for (int i = 1; i < n; ++i) {
      for (size_t s = 0; s < sigma; ++s) {
        for (size_t t = 0; t < sigma; ++t) {
          PutString(mu.TransitionExact(i, static_cast<Symbol>(s),
                                       static_cast<Symbol>(t))
                        .ToString(),
                    &payload);
        }
      }
    }
  }
  return payload;
}

StatusOr<markov::MarkovSequence> DecodeMarkovPayload(Reader* r) {
  StatusOr<Alphabet> alphabet = Status::Internal("unread");
  if (!ReadAlphabet(r, &alphabet)) return Reject("markov payload truncated");
  if (!alphabet.ok()) return Reject("bad alphabet: " +
                                    alphabet.status().ToString());
  const size_t sigma = alphabet->size();
  uint32_t length;
  uint8_t has_exact;
  if (!r->ReadU32(&length) || !r->ReadU8(&has_exact)) {
    return Reject("markov payload truncated");
  }
  if (length == 0) return Reject("zero-length markov sequence");
  std::vector<double> initial(sigma);
  for (double& v : initial) {
    if (!r->ReadF64(&v)) return Reject("markov payload truncated");
  }
  uint32_t distinct;
  if (!r->ReadU32(&distinct)) return Reject("markov payload truncated");
  std::vector<uint32_t> step_of_index(length - 1);
  for (uint32_t& step : step_of_index) {
    if (!r->ReadU32(&step)) return Reject("markov payload truncated");
    if (step >= distinct) return Reject("step id out of range");
  }
  std::vector<std::vector<double>> steps(distinct);
  for (auto& dense : steps) {
    dense.resize(sigma * sigma);
    for (double& v : dense) {
      if (!r->ReadF64(&v)) return Reject("markov payload truncated");
    }
  }
  if (has_exact) {
    std::vector<numeric::Rational> exact_initial;
    exact_initial.reserve(sigma);
    std::string token;
    for (size_t s = 0; s < sigma; ++s) {
      if (!r->ReadString(&token)) return Reject("markov payload truncated");
      auto rat = numeric::Rational::FromString(token);
      if (!rat.ok()) return Reject("bad rational: " + token);
      exact_initial.push_back(*std::move(rat));
    }
    std::vector<std::vector<numeric::Rational>> exact_transitions(length - 1);
    for (auto& matrix : exact_transitions) {
      matrix.reserve(sigma * sigma);
      for (size_t cell = 0; cell < sigma * sigma; ++cell) {
        if (!r->ReadString(&token)) return Reject("markov payload truncated");
        auto rat = numeric::Rational::FromString(token);
        if (!rat.ok()) return Reject("bad rational: " + token);
        matrix.push_back(*std::move(rat));
      }
    }
    return markov::MarkovSequence::CreateExact(*std::move(alphabet),
                                               std::move(exact_initial),
                                               std::move(exact_transitions));
  }
  if (distinct == 1 && length > 1) {
    return markov::MarkovSequence::CreateHomogeneous(
        *std::move(alphabet), std::move(initial), std::move(steps[0]),
        static_cast<int>(length));
  }
  std::vector<std::vector<double>> transitions;
  transitions.reserve(step_of_index.size());
  for (uint32_t step : step_of_index) transitions.push_back(steps[step]);
  return markov::MarkovSequence::Create(*std::move(alphabet),
                                        std::move(initial),
                                        std::move(transitions));
}

bool WriteFileBestEffort(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : bytes) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

bool LooksBinary(std::string_view bytes) {
  return bytes.substr(0, kBinaryMagic.size()) == kBinaryMagic;
}

std::string EncodeMarkovSequence(const markov::MarkovSequence& mu,
                                 uint64_t source_fp) {
  return Seal(source_fp, EncodeMarkovPayload(mu));
}

StatusOr<DecodedModel> DecodeModel(std::string_view bytes) {
  if (!LooksBinary(bytes)) {
    // Deliberately NOT counted as a rejected snapshot: "not this format
    // at all" is dispatch, not corruption.
    return Status::InvalidArgument("binary model: missing magic");
  }
  Reader header(bytes.substr(kBinaryMagic.size()));
  uint64_t fp;
  if (!header.ReadU64(&fp)) return Reject("truncated header");
  // The fingerprint covers every remaining byte, so any truncation,
  // extension, or single-bit flip past the magic fails here.
  std::string_view body = bytes.substr(kBinaryMagic.size() + 8);
  if (Fnv1a64(body) != fp) return Reject("fingerprint mismatch");

  Reader r(body);
  uint8_t kind, version;
  uint64_t source_fp, payload_size;
  if (!r.ReadU8(&kind) || !r.ReadU8(&version) || !r.ReadU64(&source_fp) ||
      !r.ReadU64(&payload_size)) {
    return Reject("truncated header");
  }
  if (version != kPayloadVersion) return Reject("unsupported version");
  if (payload_size != r.remaining()) return Reject("payload size mismatch");

  if (kind != kKindMarkov) return Reject("unknown model kind");
  auto mu = DecodeMarkovPayload(&r);
  if (!mu.ok()) return mu.status();
  if (!r.empty()) return Reject("trailing bytes after payload");
  return DecodedModel{source_fp, *std::move(mu)};
}

std::string SnapshotPath(const std::string& path) { return path + ".tmsb"; }

StatusOr<markov::MarkovSequence> LoadMarkovSequenceFile(
    const std::string& path, bool refresh_snapshot) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();

  if (LooksBinary(*text)) {
    auto decoded = DecodeModel(*text);
    if (!decoded.ok()) return decoded.status();
    TMS_OBS_COUNT("io.snapshot_loaded", 1);
    return std::move(decoded->markov);
  }

  const uint64_t source_fp = Fnv1a64(*text);
  const std::string snapshot_path = SnapshotPath(path);
  StatusOr<std::string> snapshot = ReadFile(snapshot_path);
  if (snapshot.ok() && LooksBinary(*snapshot)) {
    auto decoded = DecodeModel(*snapshot);
    if (decoded.ok() && decoded->source_fp == source_fp) {
      TMS_OBS_COUNT("io.snapshot_loaded", 1);
      return std::move(decoded->markov);
    }
    // Stale (source text changed) or corrupt — fall back to the text and
    // rebuild below. Corruption was already counted by DecodeModel; count
    // staleness here so every fallback shows up in io.snapshot_rejected.
    if (decoded.ok()) TMS_OBS_COUNT("io.snapshot_rejected", 1);
  }

  auto mu = ParseMarkovSequence(*text);
  if (!mu.ok()) return mu.status();
  if (refresh_snapshot) {
    if (WriteFileBestEffort(snapshot_path,
                            EncodeMarkovSequence(*mu, source_fp))) {
      TMS_OBS_COUNT("io.snapshot_saved", 1);
    }
  }
  return mu;
}

}  // namespace tms::io
