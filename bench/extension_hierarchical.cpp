/// Section-5 extension study: hierarchical clustering of large template
/// banks into multiple RCM modules, and pattern partitioning across
/// modular crossbar blocks.
///
/// The paper sketches both as the way to scale the AMM beyond one array;
/// this bench quantifies them: active-path power vs a flat module as the
/// bank grows, the routing-accuracy cost, and the parasitic-fidelity gain
/// of partitioned blocks.

#include <cstdio>
#include <vector>

#include "amm/evaluation.hpp"
#include "amm/hierarchical_amm.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "crossbar/partitioned_rcm.hpp"
#include "vision/dataset.hpp"

namespace {

using namespace spinsim;

}  // namespace

int main() {
  using namespace spinsim;

  bench::banner("extension A  --  hierarchical RCM modules (clustered search)");

  // A 120-identity bank: three disjoint synthetic populations.
  FeatureSpec spec;  // 16x8, 5-bit
  std::vector<FeatureVector> bank;
  std::vector<FaceDataset> datasets;
  for (std::uint64_t seed : {2013ull, 777ull, 424242ull}) {
    FaceGeneratorConfig gen;
    gen.seed = seed;
    datasets.emplace_back(40, 10, gen);
  }
  for (const auto& ds : datasets) {
    const auto templates = build_templates(ds, spec);
    bank.insert(bank.end(), templates.begin(), templates.end());
  }
  std::printf("template bank: %zu identities (3 populations x 40)\n\n", bank.size());

  AsciiTable ta("hierarchical vs flat: power and accuracy");
  ta.set_header({"clusters k", "routing accuracy", "end-to-end accuracy", "active-path power",
                 "flat power", "saving"});
  for (std::size_t k : {4ul, 8ul, 16ul}) {
    HierarchicalAmmConfig config;
    config.features = spec;
    config.clusters = k;
    config.dwn = DwnParams::from_barrier(20.0);
    HierarchicalAmm amm(config);
    amm.store_templates(bank);

    // Probe with variant-0 images of every identity.
    std::size_t correct = 0;
    std::size_t routed_ok = 0;
    std::size_t total = 0;
    for (std::size_t pop = 0; pop < datasets.size(); ++pop) {
      for (std::size_t person = 0; person < 40; ++person) {
        const std::size_t global = pop * 40 + person;
        const FeatureVector f = extract_features(datasets[pop].image(person, 0), spec);
        const Recognition r = amm.recognize(f);
        correct += r.winner == global ? 1 : 0;
        const auto& members = amm.leaf_members(r.hierarchical()->cluster);
        routed_ok +=
            std::find(members.begin(), members.end(), global) != members.end() ? 1 : 0;
        ++total;
      }
    }
    const double active = amm.active_path_power().total().in(units::W);
    const double flat = amm.flat_equivalent_power().total().in(units::W);
    ta.add_row({std::to_string(k),
                AsciiTable::num(100.0 * routed_ok / total, 4) + " %",
                AsciiTable::num(100.0 * correct / total, 4) + " %",
                AsciiTable::eng(active, "W"), AsciiTable::eng(flat, "W"),
                AsciiTable::num(flat / active, 3) + "x"});
  }
  ta.add_note("active path = k-column router + the largest leaf module");
  ta.print();

  bench::banner("extension B  --  pattern partitioning across RCM blocks");
  std::printf("longer bars accumulate IR drop; slicing the 128-row pattern\n");
  std::printf("into blocks keeps the parasitic evaluation near the ideal one.\n\n");

  const std::size_t rows = 128;
  const std::size_t cols = 20;
  Rng wrng(5);
  std::vector<std::vector<double>> weights(cols, std::vector<double>(rows));
  for (auto& col : weights) {
    for (auto& v : col) {
      v = wrng.uniform(0.0, 1.0);
    }
  }
  std::vector<double> inputs(rows);
  for (auto& v : inputs) {
    v = wrng.uniform(1e-6, 9e-6);
  }

  AsciiTable tb("parasitic fidelity vs block count (0.5 um pitch stress case)");
  tb.set_header({"blocks", "rows per block", "mean |I_para - I_ideal| / I_ideal"});
  std::vector<double> errors;
  for (std::size_t blocks : {1ul, 2ul, 4ul, 8ul}) {
    PartitionedRcmConfig config;
    config.rows = rows;
    config.cols = cols;
    config.blocks = blocks;
    config.cell_pitch_um = 0.5;  // stress the wires
    config.memristor.write_sigma = 0.0;
    // One bank per model, from the same seed: the model does not touch the
    // write-noise stream, so both hold the same conductances.
    const auto currents = [&](CrossbarModel model) {
      config.model = model;
      PartitionedRcm rcm(config, Rng(7));
      rcm.program(weights);
      return rcm.column_currents(inputs);
    };
    const auto ideal = currents(CrossbarModel::kIdeal);
    const auto para = currents(CrossbarModel::kParasitic);
    double err = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      err += std::abs(para[j] - ideal[j]) / ideal[j];
    }
    err /= static_cast<double>(cols);
    errors.push_back(err);
    tb.add_row({std::to_string(blocks), std::to_string(rows / blocks),
                AsciiTable::num(100.0 * err, 3) + " %"});
  }
  tb.print();
  bench::verdict("partitioning monotonically improves parasitic fidelity",
                 errors[1] < errors[0] && errors[2] < errors[1] && errors[3] < errors[2]);
  return 0;
}
