#include "text.h"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace perfbench {

namespace {

std::string Trim(const std::string& s) {
  const size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Parses a non-negative decimal number starting at `pos`.
std::optional<double> NumberAt(const std::string& s, size_t pos,
                               size_t* end = nullptr) {
  size_t e = pos;
  while (e < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[e])) || s[e] == '.' ||
          s[e] == 'e' || s[e] == 'E' ||
          ((s[e] == '-' || s[e] == '+') && e > pos &&
           (s[e - 1] == 'e' || s[e - 1] == 'E')))) {
    ++e;
  }
  if (e == pos) return std::nullopt;
  if (end != nullptr) *end = e;
  return std::strtod(s.substr(pos, e - pos).c_str(), nullptr);
}

}  // namespace

std::optional<double> CommandMillis(const std::string& body) {
  const size_t ms = body.rfind(" ms");
  if (ms == std::string::npos) return std::nullopt;
  size_t b = ms;
  while (b > 0 && (std::isdigit(static_cast<unsigned char>(body[b - 1])) ||
                   body[b - 1] == '.')) {
    --b;
  }
  return NumberAt(body, b);
}

std::string EstimateCore(const std::string& body) {
  const size_t cut = body.find(", served by");
  return cut == std::string::npos ? body : body.substr(0, cut);
}

bool EstimateMemoHit(const std::string& body) {
  return body.find(", memo hit") != std::string::npos;
}

BodyFacts ParseFacts(const std::string& body) {
  BodyFacts f;
  for (size_t x = body.find(" x "); x != std::string::npos;
       x = body.find(" x ", x + 1)) {
    size_t b = x;
    while (b > 0 && std::isdigit(static_cast<unsigned char>(body[b - 1]))) --b;
    size_t end = 0;
    const auto cols = NumberAt(body, x + 3, &end);
    if (b < x && cols.has_value()) {
      f.rows = std::atoll(body.substr(b, x - b).c_str());
      f.cols = static_cast<int64_t>(*cols);
      break;
    }
  }
  if (const size_t p = body.find(" non-zeros"); p != std::string::npos) {
    size_t b = p;
    while (b > 0 && std::isdigit(static_cast<unsigned char>(body[b - 1]))) --b;
    if (b < p) f.nnz = std::atoll(body.substr(b, p - b).c_str());
  }
  if (const size_t p = body.find("sparsity "); p != std::string::npos) {
    f.sparsity = NumberAt(body, p + 9);
  }
  return f;
}

std::optional<double> StatField(const std::string& stats,
                                const std::string& line,
                                const std::string& label) {
  std::istringstream in(stats);
  std::string text;
  const std::string prefix = line + ":";
  while (std::getline(in, text)) {
    if (text.compare(0, prefix.size(), prefix) != 0) continue;
    std::string rest = text.substr(prefix.size());
    size_t start = 0;
    while (start <= rest.size()) {
      size_t comma = rest.find(',', start);
      if (comma == std::string::npos) comma = rest.size();
      std::string item = Trim(rest.substr(start, comma - start));
      start = comma + 1;
      size_t end = 0;
      const auto value = NumberAt(item, 0, &end);
      if (!value.has_value()) continue;
      // Skip a "/budget" part ("12/8388608 bytes"), then drop a trailing
      // parenthetical ("5 hits (2 canonical)").
      while (end < item.size() && item[end] != ' ') ++end;
      std::string name = Trim(item.substr(end));
      if (const size_t paren = name.find(" ("); paren != std::string::npos) {
        name = name.substr(0, paren);
      }
      if (name == label) return value;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace perfbench
