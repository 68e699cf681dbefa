// A command-line "agency" release tool: generate (or later: load) an
// extract, pick a workload of marginals and a mechanism, release the whole
// workload in ONE fused pass (shared scan + cube roll-ups, see
// lodes/workload.h), and write one protected CSV per marginal with the
// privacy ledger printed at the end. Demonstrates the production-facing
// surface of the library.
//
// Usage:
//   ./build/examples/agency_release
//       --workload=paper            (or e.g. establishment,workplace_sexedu;
//                                    one name is a one-marginal workload)
//       --mechanism=smooth_laplace  (log_laplace|smooth_laplace|smooth_gamma|
//                                    edge_laplace|geometric)
//       --alpha=0.1 --epsilon=1.0 --delta=0.05 --budget=20
//       --jobs=50000 --threads=1 --out=/tmp/protected.csv
//
// --budget sets the epsilon budget; the delta budget is fixed at 0.9.
// Under the weak adversary model (any marginal with worker attributes) a
// marginal is charged its worker-domain size times --delta, so a
// full_demographics marginal (768 worker cells, charged 768 x delta)
// needs --delta below 0.9/768 ~ 0.00117, or a pure-epsilon mechanism.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/csv.h"
#include "common/flags.h"
#include "lodes/generator.h"
#include "release/pipeline.h"

int main(int argc, char** argv) {
  using namespace eep;
  const Flags flags = Flags::Parse(argc, argv);

  lodes::GeneratorConfig generator;
  generator.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  generator.target_jobs = flags.GetInt("jobs", 50000);
  generator.num_places = static_cast<int32_t>(flags.GetInt("places", 80));
  auto generated = lodes::SyntheticLodesGenerator(generator).Generate();
  if (!generated.ok()) {
    std::cerr << "dataset generation failed: " << generated.status().ToString()
              << "\n";
    return 1;
  }
  auto data = std::move(generated).value();

  release::WorkloadReleaseConfig config;
  const std::string workload_name = flags.GetString("workload", "paper");
  auto workload = lodes::WorkloadSpec::ByName(workload_name);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }
  config.workload = std::move(workload).value();

  const std::string mech = flags.GetString("mechanism", "smooth_laplace");
  auto kind = eval::MechanismKindByName(mech);
  if (!kind.ok()) {
    std::cerr << kind.status().ToString() << "\n";
    return 1;
  }
  config.mechanism = kind.value();

  config.alpha = flags.GetDouble("alpha", 0.1);
  config.epsilon = flags.GetDouble("epsilon", 1.0);
  // Mechanisms that never use delta default it to 0, so the accountant is
  // not charged a delta the release does not spend.
  const eval::MechanismKind k = config.mechanism;
  const bool pure_epsilon = k == eval::MechanismKind::kSmoothGamma ||
                            k == eval::MechanismKind::kLogLaplace ||
                            k == eval::MechanismKind::kEdgeLaplace;
  config.delta = flags.GetDouble("delta", pure_epsilon ? 0.0 : 0.05);
  config.description = workload_name + " workload via " + mech;

  const bool has_worker_attrs =
      std::any_of(config.workload.marginals.begin(),
                  config.workload.marginals.end(),
                  [](const lodes::MarginalSpec& spec) {
                    return spec.HasWorkerAttrs();
                  });
  const auto model = has_worker_attrs ? privacy::AdversaryModel::kWeak
                                      : privacy::AdversaryModel::kInformed;
  auto accountant = privacy::PrivacyAccountant::Create(
                        config.alpha, flags.GetDouble("budget", 20.0),
                        /*delta_budget=*/0.9, model);
  if (!accountant.ok()) {
    std::cerr << accountant.status().ToString() << "\n";
    return 1;
  }

  // --threads=N shards the group-by and the noise loop; the published
  // tables are identical for every thread count (0 = all hardware threads).
  config.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  Rng rng(static_cast<uint64_t>(flags.GetInt("noise_seed", 1)));
  release::WorkloadReleaseStats stats;
  auto released = release::RunReleaseWorkload(data, config,
                                              &accountant.value(), rng,
                                              /*cache=*/nullptr, &stats);
  if (!released.ok()) {
    std::cerr << "release refused: " << released.status().ToString() << "\n";
    return 1;
  }

  // One CSV per marginal: "<out>" for the first, "<out>.2", "<out>.3", ...
  // for the rest (the common single-marginal call keeps its exact path).
  const std::string out = flags.GetString("out", "/tmp/protected.csv");
  for (size_t i = 0; i < released.value().size(); ++i) {
    const std::string path =
        i == 0 ? out : out + "." + std::to_string(i + 1);
    const release::ReleasedTable& table = released.value()[i];
    if (auto st = WriteCsvFile(path, table.header, table.rows); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    const std::string& source = stats.compute.sources[i];
    const std::string provenance =
        source == "exact-hit" ? "grouping: the fused scan (exact hit)"
                              : "rolled up from: " + source;
    std::printf("wrote %zu protected cells to %s (%s)\n", table.rows.size(),
                path.c_str(), provenance.c_str());
  }
  std::printf("full-table scans for the whole workload: %d\n",
              stats.compute.full_table_scans);
  std::printf("privacy ledger (%s adversary model):\n",
              privacy::AdversaryModelName(model));
  for (const auto& entry : accountant.value().ledger()) {
    std::printf("  %-56s eps=%.3f delta=%.3g\n", entry.description.c_str(),
                entry.epsilon_charged, entry.delta_charged);
  }
  std::printf("remaining budget: eps=%.3f\n",
              accountant.value().remaining_epsilon());
  return 0;
}
