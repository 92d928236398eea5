#include "analysis/health_replay.hpp"

namespace pandarus::analysis {

std::unique_ptr<obs::HealthEngine> derive_health(EventSource& source,
                                                 obs::HealthConfig config) {
  auto engine = std::make_unique<obs::HealthEngine>(config);
  while (const obs::DecodedEvent* event = source.next()) {
    engine->observe_json(*event);
  }
  return engine;
}

std::unique_ptr<obs::HealthEngine> derive_health_file(
    const std::string& path, obs::HealthConfig config) {
  std::unique_ptr<EventSource> source = open_event_source(path);
  if (source == nullptr) return nullptr;
  return derive_health(*source, config);
}

}  // namespace pandarus::analysis
