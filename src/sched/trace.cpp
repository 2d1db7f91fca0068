#include "sched/trace.h"

#include <charconv>

#include "util/error.h"

namespace wearscope::sched {

namespace {

[[nodiscard]] std::string to_hex(std::uint64_t v) {
  char buf[17];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  (void)ec;
  return std::string(buf, ptr);
}

}  // namespace

std::string ScheduleTrace::decision_string() const {
  std::string out;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(decisions[i]);
  }
  return out;
}

std::string ScheduleTrace::format(std::size_t max_steps) const {
  std::string out = "schedule seed=0x" + to_hex(seed) +
                    " steps=" + std::to_string(steps.size()) +
                    (passed() ? " PASS" : deadlock ? " DEADLOCK" : " FAIL") +
                    "\ndecisions=" + decision_string() + "\n";
  const std::size_t shown = steps.size() < max_steps ? steps.size() : max_steps;
  for (std::size_t i = 0; i < shown; ++i) {
    const TraceStep& s = steps[i];
    out += "  t=" + std::to_string(s.clock) + " " + s.thread_name + " " +
           util::sched::op_name(s.op);
    if (s.obj != 0) out += " obj#" + std::to_string(s.obj);
    out += " <pos " + std::to_string(s.chosen_pos) + "/" +
           std::to_string(s.candidates.size()) + ">";
    if (s.preemption) out += " preempt";
    out.push_back('\n');
  }
  if (shown < steps.size()) {
    out += "  ... " + std::to_string(steps.size() - shown) +
           " more steps elided\n";
  }
  for (const std::string& f : failures) out += "  FAIL: " + f + "\n";
  if (deadlock) out += "  DEADLOCK: all managed threads blocked\n";
  return out;
}

std::string ScheduleTrace::report() const {
  return format() + "replay with: --replay \"" + decision_string() + "\"\n";
}

std::vector<int> parse_decisions(const std::string& text) {
  std::vector<int> decisions;
  if (text.empty()) return decisions;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('.', start);
    if (end == std::string::npos) end = text.size();
    int value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data() + start, text.data() + end, value);
    util::require(ec == std::errc() && ptr == text.data() + end &&
                      end > start && value >= 0,
                  "parse_decisions: malformed decision string");
    decisions.push_back(value);
    if (end == text.size()) break;
    start = end + 1;
  }
  return decisions;
}

}  // namespace wearscope::sched
