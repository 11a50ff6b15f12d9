#include "proto/http.h"

#include <array>
#include <charconv>
#include <utility>

#include "netbase/byteio.h"

namespace originscan::proto {
namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kBodyOpen = "<html><head><title>";
constexpr std::string_view kBodyMiddle = "</title></head><body>";
constexpr std::string_view kBodyClose = "</body></html>";

// Splits off the next CRLF-terminated line; returns nullopt when no CRLF
// remains.
std::optional<std::string_view> next_line(std::string_view& text) {
  const auto pos = text.find(kCrlf);
  if (pos == std::string_view::npos) return std::nullopt;
  auto line = text.substr(0, pos);
  text.remove_prefix(pos + kCrlf.size());
  return line;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

// The header lines of one message, as (name, value) views with the
// surrounding blanks trimmed.
struct HttpHeaders {
  std::array<std::pair<std::string_view, std::string_view>, kMaxHttpHeaders>
      lines;
  std::size_t size = 0;

  // The value of the last header named `name`, or nullopt.
  [[nodiscard]] std::optional<std::string_view> find(
      std::string_view name) const {
    for (std::size_t i = size; i-- > 0;) {
      if (iequals(lines[i].first, name)) return lines[i].second;
    }
    return std::nullopt;
  }
};

// Parses "Name: value" header lines until the blank line; returns false
// on malformed input or more lines than the table holds.
bool parse_headers(std::string_view& text, HttpHeaders& headers) {
  for (;;) {
    auto line = next_line(text);
    if (!line) return false;
    if (line->empty()) return true;  // end of headers
    const auto colon = line->find(':');
    if (colon == std::string_view::npos) return false;
    if (headers.size == kMaxHttpHeaders) return false;
    headers.lines[headers.size++] = {trim(line->substr(0, colon)),
                                     trim(line->substr(colon + 1))};
  }
}

void write_number(net::ByteWriter& w, std::size_t value) {
  char digits[20];
  const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  w.text(std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

void write_header(net::ByteWriter& w, std::string_view name,
                  std::string_view value) {
  w.text(name);
  w.text(": ");
  w.text(value);
  w.text(kCrlf);
}

}  // namespace

void HttpRequest::write(std::vector<std::uint8_t>& out) const {
  net::ByteWriter w(out);
  w.text(method);
  w.text(" ");
  w.text(target);
  w.text(" HTTP/1.1\r\nHost: ");
  w.text(host.empty() ? "-" : host);
  w.text("\r\nUser-Agent: ");
  w.text(user_agent);
  w.text("\r\nAccept: */*\r\nConnection: close\r\n\r\n");
}

std::optional<HttpRequest> HttpRequest::parse(std::string_view text) {
  auto line = next_line(text);
  if (!line) return std::nullopt;
  const auto first_space = line->find(' ');
  const auto second_space = line->rfind(' ');
  if (first_space == std::string_view::npos || second_space <= first_space) {
    return std::nullopt;
  }
  HttpRequest request;
  request.method = line->substr(0, first_space);
  request.target =
      line->substr(first_space + 1, second_space - first_space - 1);
  if (line->substr(second_space + 1) != "HTTP/1.1" &&
      line->substr(second_space + 1) != "HTTP/1.0") {
    return std::nullopt;
  }
  HttpHeaders headers;
  if (!parse_headers(text, headers)) return std::nullopt;
  request.host = headers.find("host").value_or("");
  if (auto agent = headers.find("user-agent")) request.user_agent = *agent;
  return request;
}

void HttpResponse::write(std::vector<std::uint8_t>& out) const {
  net::ByteWriter w(out);
  w.text("HTTP/1.1 ");
  write_number(w, static_cast<std::size_t>(status_code));
  w.text(" ");
  w.text(reason);
  w.text(kCrlf);
  if (!server.empty()) write_header(w, "Server", server);
  if (!location.empty()) write_header(w, "location", location);
  w.text("Content-Type: text/html\r\nContent-Length: ");
  write_number(w, kBodyOpen.size() + kBodyMiddle.size() + kBodyClose.size() +
                      2 * title.size());
  w.text("\r\nConnection: close\r\n\r\n");
  w.text(kBodyOpen);
  w.text(title);
  w.text(kBodyMiddle);
  w.text(title);
  w.text(kBodyClose);
}

std::optional<HttpResponse> HttpResponse::parse(std::string_view text) {
  auto line = next_line(text);
  if (!line) return std::nullopt;
  if (!line->starts_with("HTTP/1.")) return std::nullopt;
  const auto first_space = line->find(' ');
  if (first_space == std::string_view::npos) return std::nullopt;
  auto rest = line->substr(first_space + 1);
  int status = 0;
  auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), status);
  if (ec != std::errc{} || status < 100 || status > 599) return std::nullopt;

  HttpResponse response;
  response.status_code = status;
  const auto reason_start = rest.find(' ');
  response.reason = reason_start == std::string_view::npos
                        ? std::string_view("OK")
                        : rest.substr(reason_start + 1);
  HttpHeaders headers;
  if (!parse_headers(text, headers)) return std::nullopt;
  response.server = headers.find("server").value_or("");
  response.location = headers.find("location").value_or("");
  // Body framing: trust Content-Length when present, else take the rest.
  std::string_view body = text;
  if (auto field = headers.find("content-length")) {
    std::size_t length = 0;
    auto [p, e] =
        std::from_chars(field->data(), field->data() + field->size(), length);
    if (e == std::errc{} && p == field->data() + field->size() &&
        length <= body.size()) {
      body = body.substr(0, length);
    }
  }
  response.title = extract_title(body);
  return response;
}

std::string_view extract_title(std::string_view html) {
  const auto open = html.find("<title>");
  if (open == std::string_view::npos) return {};
  const auto start = open + 7;
  const auto close = html.find("</title>", start);
  if (close == std::string_view::npos) return {};
  return html.substr(start, close - start);
}

}  // namespace originscan::proto
