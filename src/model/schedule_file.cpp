#include "model/schedule_file.h"

#include <fstream>
#include <sstream>

namespace hds::model {

bool write_schedule(const std::string& path, const ScheduleFile& s) {
  std::ofstream out(path);
  if (!out) return false;
  out << "hds-schedule v1\n";
  out << "scenario " << (s.scenario.empty() ? "unnamed" : s.scenario) << "\n";
  if (s.mutation.active())
    out << "mutation " << mutation_kind_name(s.mutation.kind) << " "
        << s.mutation.rank << " " << s.mutation.nth << "\n";
  out << "steps " << s.choices.size() << "\n";
  for (int c : s.choices) out << c << "\n";
  return static_cast<bool>(out);
}

std::optional<ScheduleFile> read_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != "hds-schedule v1")
    return std::nullopt;

  ScheduleFile s;
  usize steps = 0;
  bool saw_steps = false;
  while (!saw_steps && std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "scenario") {
      ls >> s.scenario;
    } else if (key == "mutation") {
      std::string kind;
      ls >> kind >> s.mutation.rank >> s.mutation.nth;
      if (kind == "drop-barrier")
        s.mutation.kind = Mutation::Kind::DropBarrier;
      else if (kind == "reorder-push")
        s.mutation.kind = Mutation::Kind::ReorderPush;
      else
        return std::nullopt;
      if (ls.fail()) return std::nullopt;
    } else if (key == "steps") {
      ls >> steps;
      if (ls.fail()) return std::nullopt;
      saw_steps = true;
    } else if (key.empty() || key[0] == '#') {
      continue;  // blank / comment
    } else {
      return std::nullopt;
    }
  }
  if (!saw_steps) return std::nullopt;
  s.choices.reserve(steps);
  for (usize i = 0; i < steps; ++i) {
    int c = -1;
    if (!(in >> c) || c < 0) return std::nullopt;
    s.choices.push_back(c);
  }
  return s;
}

}  // namespace hds::model
