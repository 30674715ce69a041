#include "engine/backend.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "par/hybrid.hpp"
#include "par/spatial.hpp"
#include "sim/simulator.hpp"

namespace photon {

namespace {

class SerialBackend final : public Backend {
 public:
  std::string name() const override { return "serial"; }
  RunResult run(const Scene& scene, const RunConfig& config,
                const RunResult* resume) override {
    return run_serial(scene, config, resume);
  }
};

// The particle engine (par/hybrid.hpp) under each of its names. `batch`
// keeps its per-name meaning: the global window for shared and hybrid,
// photons per rank per round for dist-particle.
enum class ParticleShape {
  kThreads,          // shared: 1 × workers
  kRanks,            // dist-particle: workers × 1
  kGroupsOfThreads,  // hybrid: groups × workers
};

class ParticleBackend final : public Backend {
 public:
  ParticleBackend(std::string name, ParticleShape shape)
      : name_(std::move(name)), shape_(shape) {}
  std::string name() const override { return name_; }
  RunResult run(const Scene& scene, const RunConfig& config,
                const RunResult* resume) override {
    RunConfig shaped = config;
    if (shape_ == ParticleShape::kThreads) {
      shaped.groups = 1;
    } else if (shape_ == ParticleShape::kRanks) {
      shaped.groups = std::max(config.workers, 1);
      shaped.workers = 1;
      shaped.batch = std::max<std::uint64_t>(config.batch, 1) *
                     static_cast<std::uint64_t>(shaped.groups);
    }
    return run_hybrid(scene, shaped, resume, name_.c_str());
  }

 private:
  std::string name_;
  ParticleShape shape_;
};

class DistSpatialBackend final : public Backend {
 public:
  std::string name() const override { return "dist-spatial"; }
  RunResult run(const Scene& scene, const RunConfig& config,
                const RunResult* resume) override {
    return run_spatial(scene, config, resume);
  }
};

using BackendFactory = std::function<std::unique_ptr<Backend>()>;

const std::map<std::string, BackendFactory>& factory_map() {
  static const std::map<std::string, BackendFactory> factories = {
      {"serial", [] { return std::make_unique<SerialBackend>(); }},
      {"shared",
       [] { return std::make_unique<ParticleBackend>("shared", ParticleShape::kThreads); }},
      {"dist-particle",
       [] { return std::make_unique<ParticleBackend>("dist-particle", ParticleShape::kRanks); }},
      {"dist-spatial", [] { return std::make_unique<DistSpatialBackend>(); }},
      {"hybrid",
       [] {
         return std::make_unique<ParticleBackend>("hybrid", ParticleShape::kGroupsOfThreads);
       }},
  };
  return factories;
}

}  // namespace

std::unique_ptr<Backend> make_backend(const std::string& name) {
  const auto it = factory_map().find(name);
  return it == factory_map().end() ? nullptr : it->second();
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  names.reserve(factory_map().size());
  for (const auto& [name, factory] : factory_map()) names.push_back(name);
  return names;
}

}  // namespace photon
