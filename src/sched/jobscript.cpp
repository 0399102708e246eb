#include "sched/jobscript.hpp"

#include <cctype>
#include <cmath>
#include <optional>
#include <sstream>

#include "util/assert.hpp"

namespace gearsim::sched {

std::string to_string(EnergyPolicyTag tag) {
  switch (tag) {
    case EnergyPolicyTag::kMinimizeTimeToSolution:
      return "minimize_time_to_solution";
    case EnergyPolicyTag::kMinimizeEnergyToSolution:
      return "minimize_energy_to_solution";
    case EnergyPolicyTag::kMinimizeEdp:
      return "minimize_edp";
    case EnergyPolicyTag::kNone:
      return "none";
  }
  return "?";
}

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return s.substr(b, e - b);
}

bool parse_yes_no(const std::string& key, const std::string& value) {
  if (value == "yes") return true;
  if (value == "no") return false;
  throw ContractError("job script: " + key + " expects yes or no, got '" +
                      value + "'");
}

int parse_positive_int(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  int parsed = 0;
  try {
    parsed = std::stoi(value, &used);
  } catch (const std::exception&) {
    throw ContractError("job script: bad " + key + " '" + value + "'");
  }
  if (used != value.size() || parsed < 1) {
    throw ContractError("job script: bad " + key + " '" + value + "'");
  }
  return parsed;
}

double parse_number(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    throw ContractError("job script: bad " + key + " '" + value + "'");
  }
  // inf/nan parse but would wedge the scheduler's event loop.
  if (used != value.size() || !std::isfinite(parsed)) {
    throw ContractError("job script: bad " + key + " '" + value + "'");
  }
  return parsed;
}

/// The in-flight state of one stanza; `queue` freezes it into a JobScript.
struct Stanza {
  std::optional<std::string> name;
  std::optional<std::string> workload;
  std::optional<int> total_tasks;
  std::optional<Seconds> wall_limit;
  std::optional<Seconds> arrival;
  std::optional<bool> minimize_time;
  std::optional<bool> minimize_energy;
  std::optional<std::string> tag_value;
  bool touched = false;  ///< Any `#@` keyword seen since the last queue.
};

}  // namespace

Seconds parse_wall_clock_limit(const std::string& text) {
  // HH:MM:SS / MM:SS / plain seconds.
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, ':')) parts.push_back(part);
  GEARSIM_REQUIRE(!parts.empty() && parts.size() <= 3,
                  "job script: bad wall_clock_limit '" + text + "'");
  double total = 0.0;
  for (const std::string& p : parts) {
    const double v = parse_number("wall_clock_limit", trim(p));
    GEARSIM_REQUIRE(v >= 0.0,
                    "job script: negative wall_clock_limit '" + text + "'");
    total = total * 60.0 + v;
  }
  // Finite fields can still overflow once scaled to seconds.
  if (!std::isfinite(total)) {
    throw ContractError("job script: bad wall_clock_limit '" + text + "'");
  }
  return seconds(total);
}

std::vector<JobScript> parse_job_scripts(const std::string& text) {
  std::vector<JobScript> jobs;
  Stanza stanza;

  const auto queue_job = [&jobs, &stanza] {
    JobScript job;
    job.id = stanza.name.value_or("job" + std::to_string(jobs.size() + 1));
    job.workload = stanza.workload.value_or(job.workload);
    job.total_tasks = stanza.total_tasks.value_or(job.total_tasks);
    job.wall_clock_limit = stanza.wall_limit.value_or(job.wall_clock_limit);
    job.arrival = stanza.arrival.value_or(job.arrival);
    GEARSIM_REQUIRE(!(stanza.minimize_time.value_or(false) &&
                      stanza.minimize_energy.value_or(false)),
                    "job script " + job.id +
                        ": minimize_time_to_solution and "
                        "minimize_energy_to_solution are both set");
    if (stanza.minimize_time.value_or(false)) {
      job.tag = EnergyPolicyTag::kMinimizeTimeToSolution;
    } else if (stanza.minimize_energy.value_or(false)) {
      job.tag = EnergyPolicyTag::kMinimizeEnergyToSolution;
    } else if (stanza.tag_value.has_value()) {
      // A tag naming the policy directly binds without a minimize_* line;
      // a site-specific tag name with no minimize_* line means "none".
      const std::string& tag = *stanza.tag_value;
      if (tag == "minimize_time_to_solution") {
        job.tag = EnergyPolicyTag::kMinimizeTimeToSolution;
      } else if (tag == "minimize_energy_to_solution") {
        job.tag = EnergyPolicyTag::kMinimizeEnergyToSolution;
      } else if (tag == "minimize_edp") {
        job.tag = EnergyPolicyTag::kMinimizeEdp;
      } else {
        job.tag = EnergyPolicyTag::kNone;
      }
    }
    jobs.push_back(std::move(job));
    stanza = Stanza{};
  };

  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.rfind("#@", 0) != 0) continue;  // Shell payload / comments.
    line = trim(line.substr(2));
    if (line == "queue") {
      queue_job();
      continue;
    }
    const std::size_t eq = line.find('=');
    GEARSIM_REQUIRE(eq != std::string::npos,
                    "job script: malformed keyword line '#@ " + line + "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    stanza.touched = true;
    if (key == "job_name") {
      stanza.name = value;
    } else if (key == "workload") {
      stanza.workload = value;
    } else if (key == "total_tasks") {
      stanza.total_tasks = parse_positive_int(key, value);
    } else if (key == "wall_clock_limit") {
      stanza.wall_limit = parse_wall_clock_limit(value);
    } else if (key == "arrival") {
      const double v = parse_number(key, value);
      GEARSIM_REQUIRE(v >= 0.0, "job script: negative arrival '" + value +
                                    "'");
      stanza.arrival = seconds(v);
    } else if (key == "energy_policy_tag") {
      stanza.tag_value = value;
    } else if (key == "minimize_time_to_solution") {
      stanza.minimize_time = parse_yes_no(key, value);
    } else if (key == "minimize_energy_to_solution") {
      stanza.minimize_energy = parse_yes_no(key, value);
    } else if (key == "job_type") {
      GEARSIM_REQUIRE(value == "parallel",
                      "job script: unsupported job_type '" + value + "'");
    }
    // Every other LoadLeveler key (output, error, class, notification,
    // island_count, notify_user, ...) is accepted and ignored.
  }
  GEARSIM_REQUIRE(!stanza.touched,
                  "job script: trailing stanza without '#@ queue'");
  return jobs;
}

JobScript parse_job_script(const std::string& text) {
  std::vector<JobScript> jobs = parse_job_scripts(text);
  GEARSIM_REQUIRE(jobs.size() == 1,
                  "expected exactly one job stanza, got " +
                      std::to_string(jobs.size()));
  return std::move(jobs.front());
}

}  // namespace gearsim::sched
