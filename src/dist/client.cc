#include "dist/client.h"

#include <netdb.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <utility>

#include "obs/obs.h"

namespace tms::dist {

namespace {

constexpr size_t kReadChunk = 16 * 1024;
constexpr size_t kMaxHead = 16 * 1024;

// ---- tiny JSON field extraction -----------------------------------------
//
// The worker stream is our own wire format (serve/wire.cc), so a
// field-marker scan is enough — but the values still get a real string
// unescape so a key like `a"b` round-trips.

bool UnescapeJsonString(std::string_view raw, std::string* out) {
  out->clear();
  for (size_t i = 0; i < raw.size(); ++i) {
    char c = raw[i];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= raw.size()) return false;
    switch (raw[i]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (i + 4 >= raw.size()) return false;
        unsigned value = 0;
        for (int k = 0; k < 4; ++k) {
          char h = raw[i + 1 + k];
          value <<= 4;
          if (h >= '0' && h <= '9') value |= h - '0';
          else if (h >= 'a' && h <= 'f') value |= h - 'a' + 10;
          else if (h >= 'A' && h <= 'F') value |= h - 'A' + 10;
          else return false;
        }
        i += 4;
        // Our escaper only emits \u00XX (control bytes).
        if (value > 0xff) return false;
        out->push_back(static_cast<char>(value));
        break;
      }
      default: return false;
    }
  }
  return true;
}

/// `"name` followed by `suffix`. Built by appending: GCC 12 at -O3 flags
/// `"\"" + std::string(name)` with a false -Wrestrict.
std::string FieldMarker(std::string_view name, std::string_view suffix) {
  std::string marker = "\"";
  marker.append(name);
  marker.append(suffix);
  return marker;
}

/// Finds `"name":"<value>"` and unescapes the value.
bool FindStringField(std::string_view line, std::string_view name,
                     std::string* out) {
  const std::string marker = FieldMarker(name, "\":\"");
  const size_t at = line.find(marker);
  if (at == std::string_view::npos) return false;
  size_t i = at + marker.size();
  const size_t start = i;
  while (i < line.size()) {
    if (line[i] == '\\') {
      i += 2;
      continue;
    }
    if (line[i] == '"') break;
    ++i;
  }
  if (i >= line.size()) return false;
  return UnescapeJsonString(line.substr(start, i - start), out);
}

bool FindNumberField(std::string_view line, std::string_view name,
                     double* out) {
  const std::string marker = FieldMarker(name, "\":");
  const size_t at = line.find(marker);
  if (at == std::string_view::npos) return false;
  // %.17g doubles round-trip exactly through strtod, so the score the
  // merge orders by is bit-identical to the one the worker ranked by.
  const std::string tail(line.substr(at + marker.size()));
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(tail.c_str(), &end);
  if (end == tail.c_str() || errno == ERANGE) return false;
  *out = value;
  return true;
}

/// Finds `"name":<digits>` and parses the digits into an int64_t exactly.
/// A fraction, an exponent or a count outside int64_t is not an integer
/// field, so it reads as missing.
bool FindIntField(std::string_view line, std::string_view name,
                  int64_t* out) {
  const std::string marker = FieldMarker(name, "\":");
  const size_t at = line.find(marker);
  if (at == std::string_view::npos) return false;
  const char* first = line.data() + at + marker.size();
  const char* last = line.data() + line.size();
  int64_t value = 0;
  const std::from_chars_result parsed = std::from_chars(first, last, value);
  if (parsed.ec != std::errc() ||
      (parsed.ptr != last && *parsed.ptr != ',' && *parsed.ptr != '}')) {
    return false;
  }
  *out = value;
  return true;
}

bool FindBoolField(std::string_view line, std::string_view name, bool* out) {
  const std::string marker = FieldMarker(name, "\":");
  const size_t at = line.find(marker);
  if (at == std::string_view::npos) return false;
  *out = line.substr(at + marker.size(), 4) == "true";
  return true;
}

}  // namespace

StatusOr<std::vector<WorkerAddress>> ParseWorkerList(std::string_view csv) {
  std::vector<WorkerAddress> workers;
  while (!csv.empty()) {
    const size_t comma = csv.find(',');
    std::string_view item =
        comma == std::string_view::npos ? csv : csv.substr(0, comma);
    csv = comma == std::string_view::npos ? std::string_view()
                                          : csv.substr(comma + 1);
    const size_t colon = item.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      return Status::InvalidArgument("worker must be host:port: '" +
                                     std::string(item) + "'");
    }
    WorkerAddress w;
    w.host = std::string(item.substr(0, colon));
    for (char c : item.substr(colon + 1)) {
      if (c < '0' || c > '9') {
        w.port = -1;
        break;
      }
      w.port = w.port * 10 + (c - '0');
      // Stop once out of range, before another digit can overflow the int.
      if (w.port > 65535) break;
    }
    if (w.port <= 0 || w.port > 65535) {
      return Status::InvalidArgument("bad worker port in '" +
                                     std::string(item) + "'");
    }
    workers.push_back(std::move(w));
  }
  if (workers.empty()) {
    return Status::InvalidArgument("empty worker list");
  }
  return workers;
}

HttpStream::~HttpStream() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpStream::Fill(Status* status) {
  if (saw_eof_) return false;
  char tmp[kReadChunk];
  const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
  if (n > 0) {
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }
  if (n == 0) {
    saw_eof_ = true;
    return false;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    *status = Status::DeadlineExceeded("worker read timed out");
  } else {
    *status = Status::Internal(std::string("worker read failed: ") +
                               std::strerror(errno));
  }
  return false;
}

Status HttpStream::Decode() {
  // Moves bytes buf_ → body_ according to the transfer encoding; sets
  // body_done_ when the body has cleanly ended.
  if (!chunked_) {
    if (content_left_ > 0 && !buf_.empty()) {
      const size_t take =
          std::min<long long>(content_left_, static_cast<long long>(buf_.size()));
      body_.append(buf_, 0, take);
      buf_.erase(0, take);
      content_left_ -= static_cast<long long>(take);
    }
    if (content_left_ == 0) body_done_ = true;
    return Status::Ok();
  }
  for (;;) {
    if (chunk_left_ > 0) {
      if (buf_.empty()) return Status::Ok();
      const size_t take =
          std::min<long long>(chunk_left_, static_cast<long long>(buf_.size()));
      body_.append(buf_, 0, take);
      buf_.erase(0, take);
      chunk_left_ -= static_cast<long long>(take);
      continue;
    }
    // Between chunks: expect [\r\n] <hex-size> \r\n. The first chunk has
    // no leading CRLF; later ones do (the previous chunk's trailer).
    size_t start = 0;
    if (buf_.substr(0, 2) == "\r\n") start = 2;
    const size_t eol = buf_.find("\r\n", start);
    if (eol == std::string::npos) {
      if (buf_.size() > kMaxHead) {
        return Status::Internal("oversized chunk header from worker");
      }
      return Status::Ok();  // need more bytes
    }
    const std::string size_line = buf_.substr(start, eol - start);
    char* end = nullptr;
    const long long size = std::strtoll(size_line.c_str(), &end, 16);
    if (end == size_line.c_str() || size < 0) {
      return Status::Internal("bad chunk size from worker: '" + size_line +
                              "'");
    }
    buf_.erase(0, eol + 2);
    if (size == 0) {
      body_done_ = true;  // terminal chunk; trailing CRLF ignored
      return Status::Ok();
    }
    chunk_left_ = size;
  }
}

StatusOr<std::optional<std::string>> HttpStream::NextLine() {
  for (;;) {
    const size_t nl = body_.find('\n');
    if (nl != std::string::npos) {
      std::string line = body_.substr(0, nl);
      body_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return std::optional<std::string>(std::move(line));
    }
    if (body_done_) {
      if (!body_.empty()) {
        // A final unterminated fragment — the worker never writes one,
        // so this is a cut stream.
        return Status::Internal("worker stream ended mid-line");
      }
      return std::optional<std::string>();
    }
    if (saw_eof_) {
      // EOF from the peer before the clean end of the body, and no
      // complete line left in the decoded buffer: the worker died
      // mid-stream. (Complete lines received before the cut were already
      // emitted above — they are part of the clean prefix.)
      return Status::Internal("worker closed connection mid-stream");
    }
    Status status = Status::Ok();
    if (!Fill(&status)) {
      if (!status.ok()) return status;
      // EOF: decode whatever is buffered and loop — any fully received
      // line still counts.
    }
    Status decoded = Decode();
    if (!decoded.ok()) return decoded;
  }
}

StatusOr<std::unique_ptr<HttpStream>> HttpStream::Post(
    const WorkerAddress& worker, const std::string& target,
    const std::string& body, const Options& options) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  const std::string port_text = std::to_string(worker.port);
  const int rc = ::getaddrinfo(worker.host.c_str(), port_text.c_str(), &hints,
                               &result);
  if (rc != 0) {
    return Status::Internal("resolve " + worker.host + ": " +
                               gai_strerror(rc));
  }
  int fd = -1;
  std::string connect_error = "no addresses";
  for (struct addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    struct timeval tv;
    tv.tv_sec = options.connect_timeout_ms / 1000;
    tv.tv_usec = (options.connect_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    connect_error = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    return Status::Internal("connect " + worker.host + ":" + port_text +
                               ": " + connect_error);
  }

  auto stream = std::unique_ptr<HttpStream>(new HttpStream());
  stream->fd_ = fd;
  struct timeval tv;
  tv.tv_sec = options.read_timeout_ms / 1000;
  tv.tv_usec = (options.read_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  std::string request = "POST " + target + " HTTP/1.1\r\nHost: " +
                        worker.host + ":" + port_text +
                        "\r\nContent-Type: text/plain\r\nContent-Length: " +
                        std::to_string(body.size()) +
                        "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return Status::Internal(std::string("send to worker failed: ") +
                                 std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }

  // Response head: status line + headers, terminated by CRLFCRLF.
  size_t head_end;
  for (;;) {
    head_end = stream->buf_.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (stream->buf_.size() > kMaxHead) {
      return Status::Internal("oversized response head from worker");
    }
    Status status = Status::Ok();
    if (!stream->Fill(&status)) {
      if (!status.ok()) return status;
      return Status::Internal("worker closed connection before response");
    }
  }
  const std::string head = stream->buf_.substr(0, head_end);
  stream->buf_.erase(0, head_end + 4);

  const size_t sp = head.find(' ');
  if (head.substr(0, 5) != "HTTP/" || sp == std::string::npos) {
    return Status::Internal("bad status line from worker: '" +
                            head.substr(0, head.find("\r\n")) + "'");
  }
  stream->status_code_ = std::atoi(head.c_str() + sp + 1);

  // Case-insensitive header scan for the two fields we care about.
  std::string lower = head;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  stream->chunked_ = lower.find("transfer-encoding: chunked") !=
                     std::string::npos;
  if (!stream->chunked_) {
    const size_t cl = lower.find("content-length:");
    stream->content_left_ =
        cl == std::string::npos ? 0 : std::atoll(head.c_str() + cl + 15);
  }

  if (stream->status_code_ < 200 || stream->status_code_ > 299) {
    std::string detail;
    // Best effort: drain a little of the error body for the message.
    for (int i = 0; i < 4 && !stream->body_done_; ++i) {
      Status status = Status::Ok();
      Status decoded = stream->Decode();
      if (!decoded.ok()) break;
      if (stream->body_done_ || stream->body_.size() > 256) break;
      if (!stream->Fill(&status)) break;
    }
    (void)stream->Decode();
    detail = stream->body_.substr(0, 256);
    while (!detail.empty() && (detail.back() == '\n' || detail.back() == '\r')) {
      detail.pop_back();
    }
    return Status::Internal(
        "worker answered HTTP " + std::to_string(stream->status_code_) +
        (detail.empty() ? "" : ": " + detail));
  }
  return stream;
}

RemoteShardSource::RemoteShardSource(
    int shard_id, StatusOr<std::unique_ptr<HttpStream>> stream) {
  coverage_.shard_id = shard_id;
  if (!stream.ok()) {
    Fail(stream.status());
    return;
  }
  stream_ = std::move(stream).value();
}

void RemoteShardSource::Fail(Status status) {
  TMS_OBS_COUNT("dist.client.shard_failures", 1);
  coverage_.failed = true;
  coverage_.status = std::move(status);
  done_ = true;
  stream_.reset();
}

std::optional<MergeEntry> RemoteShardSource::Next() {
  if (done_) return std::nullopt;
  auto line = stream_->NextLine();
  if (!line.ok()) {
    Fail(line.status());
    return std::nullopt;
  }
  if (!line->has_value()) {
    Fail(Status::Internal("worker stream ended without a footer"));
    return std::nullopt;
  }
  std::string row = **std::move(line);
  if (row.compare(0, 13, "{\"done\":true,") == 0 || row == "{\"done\":true}") {
    // The footer: the shard's own account of what it evaluated.
    (void)FindIntField(row, "sequences", &coverage_.sequences);
    (void)FindIntField(row, "failed_sequences", &coverage_.failed_sequences);
    bool truncated = false;
    if (FindBoolField(row, "truncated", &truncated)) {
      coverage_.truncated = truncated;
    }
    std::string reason;
    if (FindStringField(row, "reason", &reason)) {
      if (reason == "ANSWER_CAP") coverage_.reason = exec::StopReason::kAnswerCap;
      else if (reason == "BUDGET") coverage_.reason = exec::StopReason::kBudget;
      else if (reason == "DEADLINE") coverage_.reason = exec::StopReason::kDeadline;
      else if (reason == "CANCELLED") coverage_.reason = exec::StopReason::kCancelled;
      else if (reason == "FAULT") coverage_.reason = exec::StopReason::kFault;
    }
    done_ = true;
    stream_.reset();
    return std::nullopt;
  }
  MergeEntry entry;
  if (!FindStringField(row, "key", &entry.key) ||
      !FindNumberField(row, "emax", &entry.score)) {
    Fail(Status::Internal("unparseable row from worker: '" +
                          row.substr(0, 128) + "'"));
    return std::nullopt;
  }
  TMS_OBS_COUNT("dist.client.rows", 1);
  entry.line = std::move(row);
  return entry;
}

}  // namespace tms::dist
