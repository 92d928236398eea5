// Replay face of the health engine: streams a recorded campaign (NDJSON
// or colstore, via analysis::EventSource) one flat event at a time
// through obs::HealthEngine::observe_json, producing the exact
// detector / SLO / alert state the live run held when it emitted those
// events.  This is
// the detectors' out-of-core path — the file is never loaded whole —
// and the source of truth for the live-vs-replay /api/alerts parity
// gate.
#pragma once

#include <memory>
#include <string>

#include "analysis/event_source.hpp"
#include "obs/health.hpp"

namespace pandarus::analysis {

/// Streams `source` to exhaustion into a fresh engine.  The engine is
/// never installed, so it emits nothing: deriving health from a stream
/// never re-emits that stream's own alerts into an installed EventLog.
std::unique_ptr<obs::HealthEngine> derive_health(
    EventSource& source, obs::HealthConfig config = {});

/// Convenience: open_event_source(path) + derive_health; nullptr when
/// the file cannot be opened.
std::unique_ptr<obs::HealthEngine> derive_health_file(
    const std::string& path, obs::HealthConfig config = {});

}  // namespace pandarus::analysis
