// pandarus-flow: critical-path wait attribution over causal flows.
//
//   pandarus-flow <events.ndjson> [stacks.collapsed]
//   pandarus-flow --demo [seed] [stacks.collapsed]
//
// Replay mode rebuilds every job's causal flow from a PANDARUS_EVENTS
// stream recorded with flows armed (PANDARUS_FLOWS set) and prints the
// wait-attribution table: per-phase p50/p95/p99, campaign totals, the
// top links by critical stage-in seconds, and the flagged
// sequential-staging case-study jobs with their bottleneck link.
//
// Demo mode runs a small campaign with a live FlowTracker installed and
// prints the same attribution from the online analyzer — the numbers a
// replay of that campaign's stream would reproduce bit-for-bit.
//
// Both modes write a flamegraph collapsed-stack file (feed it to
// flamegraph.pl / speedscope / inferno): one stack per site and phase,
// stage-in split per link plus an idle frame.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "pandarus.hpp"

namespace {

int write_stacks(const std::string& path, const std::string& collapsed) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "pandarus-flow: cannot write " << path << '\n';
    return 1;
  }
  out << collapsed;
  std::cout << "wrote " << path << " (" << collapsed.size() << " bytes)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pandarus;

  if (argc < 2) {
    std::cerr << "usage: pandarus-flow <events.ndjson> [stacks.collapsed]\n"
              << "       pandarus-flow --demo [seed] [stacks.collapsed]\n";
    return 2;
  }

  analysis::FlowAnalysis flows;
  std::string stacks_path = "flow-stacks.collapsed";

  if (std::strcmp(argv[1], "--demo") == 0) {
    obs::install_env_hooks();
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    int arg = 2;
    if (arg < argc && std::isdigit(static_cast<unsigned char>(*argv[arg]))) {
      config.seed = std::strtoull(argv[arg++], nullptr, 10);
    }
    if (arg < argc) stacks_path = argv[arg];

    // A live tracker for the whole campaign (a no-op when
    // PANDARUS_FLOWS already installed one).
    obs::FlowTracker tracker;
    if (obs::FlowTracker::installed() == nullptr) tracker.install();
    obs::FlowTracker& active = *obs::FlowTracker::installed();

    std::cout << "Running a " << config.days << "-day campaign (seed "
              << config.seed << ") with causal flows on ...\n";
    const scenario::ScenarioResult result = scenario::run_campaign(config);

    std::map<std::int64_t, std::string> names;
    for (const grid::Site& s : result.topology.sites()) {
      names[static_cast<std::int64_t>(s.id)] = s.name;
    }
    flows = analysis::analyze_flows(active, std::move(names));
    if (&active == &tracker) tracker.uninstall();
  } else {
    const std::string events_path = argv[1];
    if (argc > 2) stacks_path = argv[2];
    const analysis::ReplayResult replay =
        analysis::replay_events_file(events_path);
    if (replay.lines_parsed == 0) {
      std::cerr << "pandarus-flow: no events parsed from " << events_path
                << '\n';
      return 1;
    }
    flows = analysis::rebuild_flows(replay);
    std::cout << "replayed " << replay.lines_parsed << " events ("
              << flows.flows.size() << " flows rebuilt)\n";
  }

  if (flows.flows.empty()) {
    std::cerr << "pandarus-flow: no completed flows (was the stream "
                 "recorded with PANDARUS_FLOWS set?)\n";
    return 1;
  }
  std::cout << '\n' << analysis::render_attribution(flows);
  return write_stacks(stacks_path, flows.collapsed);
}
