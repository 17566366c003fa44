#include "layers.hpp"

#include <cstdio>
#include <utility>

namespace campaign_bench {

std::int64_t LayerTallies::total_ns() const noexcept {
  std::int64_t total = 0;
  for (const Tally& tally : by_layer) total += tally.ns;
  return total;
}

void LayerTallies::merge(const LayerTallies& other) noexcept {
  for (std::size_t i = 0; i < kLayerCount; ++i) by_layer[i].merge(other.by_layer[i]);
}

bool TimedTransport::send(const acf::can::CanFrame& frame) {
  const std::int64_t start = now_ns();
  const bool sent = inner_.send(frame);
  tally_.add(now_ns() - start);
  return sent;
}

std::optional<acf::can::CanFrame> TimedGenerator::next() {
  const std::int64_t start = now_ns();
  std::optional<acf::can::CanFrame> frame = inner_.next();
  tally_.add(now_ns() - start);
  if (frame) ++generated_;
  return frame;
}

void TimedGenerator::rewind() {
  inner_.rewind();
  generated_ = 0;
}

bool TimedGenerator::restore_state(std::span<const std::uint64_t> state) {
  const bool restored = inner_.restore_state(state);
  generated_ = inner_.generated();
  return restored;
}

std::optional<acf::oracle::Observation> TimedOracle::poll(acf::sim::SimTime now) {
  const std::int64_t start = now_ns();
  std::optional<acf::oracle::Observation> observation = inner_.poll(now);
  tally_.add(now_ns() - start);
  return observation;
}

TimedDetector::TimedDetector(std::unique_ptr<acf::ids::Detector> inner, Tally& tally)
    : Detector(inner->threshold()), inner_(std::move(inner)), tally_(tally) {}

double TimedDetector::score(const acf::can::CanFrame& frame, acf::sim::SimTime time) {
  const std::int64_t start = now_ns();
  const double value = inner_->score(frame, time);
  tally_.add(now_ns() - start);
  return value;
}

Layer detector_layer(std::string_view detector_name) noexcept {
  if (detector_name == "allowlist") return Layer::kIdsAllowlist;
  if (detector_name == "timing") return Layer::kIdsTiming;
  if (detector_name == "range") return Layer::kIdsRange;
  if (detector_name == "entropy") return Layer::kIdsEntropy;
  return Layer::kCount;
}

void TrialRecorder::record(TrialRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (keep_spans_) {
    const std::string trial = "trial";
    spans_.push_back({trial, record.index, rep_, record.build_start_ns, record.run_end_ns,
                      "campaign"});
    spans_.push_back({"world_build", record.index, rep_, record.build_start_ns,
                      record.build_end_ns, trial});
    spans_.push_back({"world_run", record.index, rep_, record.build_end_ns,
                      record.run_end_ns, trial});
  }
  records_.push_back(std::move(record));
}

std::vector<TrialRecord> TrialRecorder::take_records() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(records_, {});
}

std::vector<Span> TrialRecorder::take_spans() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

namespace {

/// Forwards run() to the wrapped world and reports the trial's timings.
class RecordedWorld final : public acf::fleet::World {
 public:
  RecordedWorld(std::unique_ptr<acf::fleet::World> inner, TrialRecord record,
                TrialRecorder& recorder)
      : inner_(std::move(inner)), record_(std::move(record)), recorder_(recorder) {}

  acf::fuzzer::CampaignResult run() override {
    acf::fuzzer::CampaignResult result = inner_->run();
    record_.run_end_ns = now_ns();
    record_.cpu_end_ns = thread_cpu_ns();
    record_.fuzz_frames = result.frames_sent;
    if (auto* world = dynamic_cast<InstrumentedWorld*>(inner_.get())) {
      record_.instrumented = true;
      record_.bus_frames = world->bus_frames();
      record_.scheduler_events = world->scheduler_events();
      record_.tallies = world->tallies();
    }
    recorder_.record(record_);
    return result;
  }

 private:
  std::unique_ptr<acf::fleet::World> inner_;
  TrialRecord record_;
  TrialRecorder& recorder_;
};

}  // namespace

acf::fleet::WorldFactory recorded(acf::fleet::WorldFactory inner, TrialRecorder& recorder) {
  return [inner = std::move(inner), &recorder](const acf::fleet::TrialSpec& spec)
             -> std::unique_ptr<acf::fleet::World> {
    TrialRecord record;
    record.index = spec.trial_index;
    record.cpu_start_ns = thread_cpu_ns();
    record.build_start_ns = now_ns();
    std::unique_ptr<acf::fleet::World> world = inner(spec);
    record.build_end_ns = now_ns();
    if (!world) return world;
    return std::make_unique<RecordedWorld>(std::move(world), std::move(record), recorder);
  };
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"rep\":%u,\"trial\":%llu,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":\"%s\"}\n",
                 span.name.c_str(), span.rep, static_cast<unsigned long long>(span.trial),
                 static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns),
                 span.parent.c_str());
  }
  return std::fclose(out) == 0;
}

}  // namespace campaign_bench
