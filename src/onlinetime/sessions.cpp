#include "onlinetime/sessions.hpp"

#include <filesystem>
#include <fstream>

#include "util/strings.hpp"

namespace dosn::onlinetime {

std::vector<DaySchedule> load_session_schedules(const std::string& path,
                                                trace::IdMap& ids,
                                                std::size_t num_users) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open " + path);

  std::vector<std::vector<interval::Interval>> sessions(num_users);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#' || trimmed.front() == '%')
      continue;
    const auto fields = util::split_ws(line);
    if (fields.size() < 3)
      throw ParseError(path + ":" + std::to_string(line_no) +
                       ": session line needs `user start end`");
    const auto user = ids.intern(fields[0]);
    if (user >= num_users)
      throw ParseError(path + ":" + std::to_string(line_no) +
                       ": session for unknown user '" +
                       std::string(fields[0]) + "'");
    const auto start = util::parse_i64(fields[1]);
    const auto end = util::parse_i64(fields[2]);
    if (start >= end)
      throw ParseError(path + ":" + std::to_string(line_no) +
                       ": session start must precede end");
    sessions[user].push_back({start, end});
  }

  std::vector<DaySchedule> out(num_users);
  for (std::size_t u = 0; u < num_users; ++u)
    if (!sessions[u].empty()) out[u] = DaySchedule::project(sessions[u]);
  return out;
}

void save_session_schedules(const std::string& path,
                            std::span<const DaySchedule> schedules) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) throw IoError("cannot create directory " + parent.string());
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("cannot open for writing: " + path);
  out << "# user\tstart\tend (seconds; daily pieces on day 0)\n";
  for (std::size_t u = 0; u < schedules.size(); ++u)
    for (const auto& piece : schedules[u].set().pieces())
      out << u << '\t' << piece.start << '\t' << piece.end << '\n';
  if (!out) throw IoError("write failure on " + path);
}

PrecomputedModel::PrecomputedModel(std::vector<DaySchedule> schedules,
                                   std::string label)
    : schedules_(std::move(schedules)), label_(std::move(label)) {}

std::vector<DaySchedule> PrecomputedModel::schedules_impl(
    const trace::Dataset& dataset, util::Rng&, util::ThreadPool*) const {
  DOSN_REQUIRE(schedules_.size() == dataset.num_users(),
               "PrecomputedModel: schedule count does not match dataset");
  return schedules_;
}

}  // namespace dosn::onlinetime
