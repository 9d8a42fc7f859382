#include "core/experiment.hpp"

#include "core/run_experiment_with.hpp"
#include "flexray/cluster.hpp"

namespace coeff::core {

flexray::ClusterConfig paper_cluster_static_suite(std::int64_t static_slots) {
  auto cfg = flexray::ClusterConfig::static_suite(static_slots);
  cfg.bus_bit_rate = 50'000'000;
  cfg.validate();
  return cfg;
}

flexray::ClusterConfig paper_cluster_dynamic_suite(std::int64_t minislots) {
  auto cfg = flexray::ClusterConfig::dynamic_suite(minislots);
  cfg.bus_bit_rate = 50'000'000;
  cfg.validate();
  return cfg;
}

flexray::ClusterConfig paper_cluster_apps(std::int64_t minislots) {
  auto cfg = flexray::ClusterConfig::app_suite(minislots);
  cfg.bus_bit_rate = 50'000'000;
  cfg.validate();
  return cfg;
}

double reliability_goal(const ExperimentConfig& config) {
  return config.rho > 0.0 ? config.rho
                          : fault::reliability_goal(config.sil, config.u);
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                SchemeKind scheme) {
  return run_experiment_with<flexray::Cluster>(config, scheme);
}

}  // namespace coeff::core
