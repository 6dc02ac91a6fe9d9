#include "http/message.h"

#include <algorithm>
#include <charconv>

#include "util/strings.h"

namespace sc::http {

namespace {
// Bytewise order of asciiLower(key) against a stored lowercase name: the
// order std::map<std::string, ...> gave the lowered keys.
int compareFolded(std::string_view name, std::string_view key) {
  const std::size_t n = std::min(name.size(), key.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<unsigned char>(name[i]);
    const auto b = static_cast<unsigned char>(asciiLower(key[i]));
    if (a != b) return a < b ? -1 : 1;
  }
  if (name.size() == key.size()) return 0;
  return name.size() < key.size() ? -1 : 1;
}

// The field named `key` if present, else where it would be inserted.
template <typename Fields>
auto findField(Fields& fields, std::string_view key) {
  const auto it = std::lower_bound(
      fields.begin(), fields.end(), key,
      [](const Headers::Field& f, std::string_view k) {
        return compareFolded(f.first, k) < 0;
      });
  const bool found = it != fields.end() && compareFolded(it->first, key) == 0;
  return std::pair{it, found};
}
}  // namespace

void Headers::set(std::string_view key, std::string value) {
  const auto [it, found] = findField(fields_, key);
  if (found) {
    it->second = std::move(value);
    return;
  }
  std::string name(key);
  for (char& c : name) c = asciiLower(c);
  fields_.emplace(it, std::move(name), std::move(value));
}

std::optional<std::string> Headers::get(std::string_view key) const {
  const auto [it, found] = findField(fields_, key);
  if (!found) return std::nullopt;
  return it->second;
}

bool Headers::has(std::string_view key) const {
  return findField(fields_, key).second;
}

std::string Request::host() const { return headers.get("host").value_or(""); }

namespace {
using namespace std::string_view_literals;

void appendText(Bytes& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

// Both start lines are three tokens: "method target HTTP/1.1" and
// "HTTP/1.1 status reason". The whole message is written into one buffer
// reserved to its exact size. A content-length field is appended whenever
// the body is non-empty, even if one is stored (ROADMAP item 3).
Bytes serializeMessage(std::string_view first, std::string_view second,
                       std::string_view third, const Headers& headers,
                       const Bytes& body) {
  static constexpr std::string_view kLength = "content-length: ";
  char len[24];
  const char* len_end = std::to_chars(len, len + sizeof len, body.size()).ptr;
  const std::string_view body_len(len, static_cast<std::size_t>(len_end - len));
  const bool add_length = !body.empty() || !headers.has("content-length");

  std::size_t size =
      first.size() + second.size() + third.size() + 4 + 2 + body.size();
  for (const auto& [k, v] : headers.all()) size += k.size() + v.size() + 4;
  if (add_length) size += kLength.size() + body_len.size() + 2;

  Bytes out;
  out.reserve(size);
  for (const std::string_view s : {first, " "sv, second, " "sv, third, "\r\n"sv})
    appendText(out, s);
  for (const auto& [k, v] : headers.all())
    for (const std::string_view s : {std::string_view(k), ": "sv,
                                     std::string_view(v), "\r\n"sv})
      appendText(out, s);
  if (add_length)
    for (const std::string_view s : {kLength, body_len, "\r\n"sv})
      appendText(out, s);
  appendText(out, "\r\n");
  out.insert(out.end(), body.begin(), body.end());
  return out;
}
}  // namespace

Bytes Request::serialize() const {
  return serializeMessage(method, target, "HTTP/1.1", headers, body);
}

Bytes Response::serialize() const {
  char code[16];
  const char* code_end = std::to_chars(code, code + sizeof code, status).ptr;
  return serializeMessage(
      "HTTP/1.1",
      std::string_view(code, static_cast<std::size_t>(code_end - code)),
      reason, headers, body);
}

std::string statusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 429: return "Too Many Requests";
    case 502: return "Bad Gateway";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

namespace {
bool parseStartLine(std::string_view line, Request& req) {
  // Exactly three space-separated tokens (empty ones count).
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const auto sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos)
    return false;
  req.method.assign(line.substr(0, sp1));
  req.target.assign(line.substr(sp1 + 1, sp2 - sp1 - 1));
  return startsWith(line.substr(sp2 + 1), "HTTP/");
}

bool parseStartLine(std::string_view line, Response& resp) {
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || !startsWith(line, "HTTP/")) return false;
  const auto sp2 = line.find(' ', sp1 + 1);
  const std::string_view code = line.substr(sp1 + 1, sp2 - sp1 - 1);
  int status = 0;
  const auto [ptr, ec] =
      std::from_chars(code.data(), code.data() + code.size(), status);
  if (ec != std::errc{} || ptr != code.data() + code.size()) return false;
  resp.status = status;
  resp.reason.assign(sp2 == std::string_view::npos ? std::string_view()
                                                   : line.substr(sp2 + 1));
  return true;
}

Headers& headersOf(Request& r) { return r.headers; }
Headers& headersOf(Response& r) { return r.headers; }
Bytes& bodyOf(Request& r) { return r.body; }
Bytes& bodyOf(Response& r) { return r.body; }
}  // namespace

template <typename Message>
bool MessageParser<Message>::tryParseHeader(std::size_t& read) {
  const std::string_view unread =
      asStringView(ByteView(buffer_).subspan(read));
  const auto pos = unread.find("\r\n\r\n");
  if (pos == std::string_view::npos) {
    if (unread.size() > 64 * 1024) malformed_ = true;  // header bomb
    return false;
  }

  // Lines split on '\n' and trimmed; blank lines are skipped, the first
  // non-blank one is the start line.
  Message msg;
  std::string_view block = unread.substr(0, pos);
  bool first = true;
  while (true) {
    const auto nl = block.find('\n');
    const std::string_view line = trimWhitespace(block.substr(0, nl));
    if (!line.empty()) {
      if (first) {
        if (!parseStartLine(line, msg)) {
          malformed_ = true;
          return false;
        }
        first = false;
      } else {
        const auto colon = line.find(':');
        if (colon == std::string_view::npos) {
          malformed_ = true;
          return false;
        }
        headersOf(msg).set(trimWhitespace(line.substr(0, colon)),
                           std::string(trimWhitespace(line.substr(colon + 1))));
      }
    }
    if (nl == std::string_view::npos) break;
    block.remove_prefix(nl + 1);
  }
  if (first) {
    malformed_ = true;
    return false;
  }

  body_needed_ = 0;
  if (const auto cl = headersOf(msg).get("content-length")) {
    std::size_t n = 0;
    const auto [ptr, ec] =
        std::from_chars(cl->data(), cl->data() + cl->size(), n);
    if (ec != std::errc{} || n > 256 * 1024 * 1024) {
      malformed_ = true;
      return false;
    }
    body_needed_ = n;
  }
  partial_ = std::move(msg);
  read += pos + 4;
  return true;
}

template <typename Message>
std::vector<Message> MessageParser<Message>::feed(ByteView data) {
  std::vector<Message> complete;
  if (malformed_) return complete;
  appendBytes(buffer_, data);

  std::size_t read = 0;  // consumed prefix of buffer_, dropped at the end
  while (!malformed_) {
    if (!partial_.has_value()) {
      if (!tryParseHeader(read)) break;
    }
    if (buffer_.size() - read < body_needed_) break;
    Message msg = std::move(*partial_);
    partial_.reset();
    const auto body = buffer_.begin() + static_cast<std::ptrdiff_t>(read);
    bodyOf(msg).assign(body, body + static_cast<std::ptrdiff_t>(body_needed_));
    read += body_needed_;
    body_needed_ = 0;
    complete.push_back(std::move(msg));
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(read));
  return complete;
}

template <typename Message>
void MessageParser<Message>::reset() {
  buffer_.clear();
  partial_.reset();
  body_needed_ = 0;
  malformed_ = false;
}

template class MessageParser<Request>;
template class MessageParser<Response>;

}  // namespace sc::http
