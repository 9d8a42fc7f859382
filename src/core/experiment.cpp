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

fault::SolverOptions solver_options(const ExperimentConfig& config) {
  fault::SolverOptions solver;
  solver.ber = config.ber;
  solver.rho = config.rho > 0.0
                   ? config.rho
                   : fault::reliability_goal(config.sil, config.u);
  solver.u = config.u;
  solver.max_copies_per_message = config.max_copies;
  return solver;
}

int fspec_rounds(const net::MessageSet& statics,
                 const fault::SolverOptions& solver) {
  return solver.rho > 0.0 ? fault::solve_uniform_rounds(statics, solver, 2)
                          : 1;
}

sched::TableBuildOptions table_options(SchemeKind scheme) {
  sched::TableBuildOptions options;
  options.exclusive_slots = scheme == SchemeKind::kFspec;
  return options;
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                SchemeKind scheme) {
  return run_experiment_with<flexray::Cluster>(config, scheme);
}

}  // namespace coeff::core
