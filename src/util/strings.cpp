#include "util/strings.h"

#include <algorithm>
#include <array>
#include <cctype>

namespace wearscope::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view text) noexcept {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view to_lower_into(std::string_view text, std::string& out) {
  out.assign(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool host_matches_suffix(std::string_view host, std::string_view suffix) {
  if (suffix.empty() || host.size() < suffix.size()) return false;
  const std::size_t cut = host.size() - suffix.size();
  if (cut != 0 && host[cut - 1] != '.') return false;
  return std::equal(suffix.begin(), suffix.end(), host.begin() + cut,
                    [](unsigned char a, unsigned char b) {
                      return std::tolower(a) == std::tolower(b);
                    });
}

std::string registrable_domain(std::string_view host) {
  const std::string h = to_lower(trim(host));
  return std::string(registrable_domain_of_lower(h));
}

std::string_view registrable_domain_of_lower(
    std::string_view host_lower) noexcept {
  static constexpr std::array<std::string_view, 6> kTwoPartSuffixes = {
      "co.uk", "com.au", "co.jp", "com.br", "co.nz", "org.uk"};
  // Fewer than two dots: the host is its own registrable domain.
  const std::size_t last = host_lower.rfind('.');
  if (last == std::string_view::npos || last == 0) return host_lower;
  const std::size_t second = host_lower.rfind('.', last - 1);
  if (second == std::string_view::npos) return host_lower;
  const std::string_view tail2 = host_lower.substr(second + 1);
  if (std::find(kTwoPartSuffixes.begin(), kTwoPartSuffixes.end(), tail2) ==
      kTwoPartSuffixes.end()) {
    return tail2;
  }
  // Two-part public suffix: keep three labels when the host has them.
  if (second == 0) return host_lower;
  const std::size_t third = host_lower.rfind('.', second - 1);
  if (third == std::string_view::npos) return host_lower;
  return host_lower.substr(third + 1);
}

bool has_label(std::string_view host, std::string_view token) {
  if (token.empty()) return false;
  const std::string h = to_lower(host);
  const std::string t = to_lower(token);
  return has_label_lower(h, t);
}

bool has_label_lower(std::string_view host_lower,
                     std::string_view token_lower) noexcept {
  if (token_lower.empty()) return false;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= host_lower.size(); ++i) {
    if (i == host_lower.size() || host_lower[i] == '.') {
      if (host_lower.substr(start, i - start) == token_lower) return true;
      start = i + 1;
    }
  }
  return false;
}

}  // namespace wearscope::util
