#include <gtest/gtest.h>

#include <vector>

#include "amm/hierarchical_amm.hpp"
#include "amm/spin_amm.hpp"
#include "support/shared_dataset.hpp"

namespace spinsim {
namespace {

SpinAmmConfig batch_config() {
  SpinAmmConfig c;
  c.features.height = 8;
  c.features.width = 6;
  c.features.bits = 5;
  c.templates = 10;
  c.dwn = DwnParams::from_barrier(20.0);
  c.seed = 123;
  return c;
}

std::vector<FeatureVector> all_inputs(const SpinAmmConfig& c) {
  std::vector<FeatureVector> inputs;
  for (const auto& sample : testing::small_dataset().all()) {
    inputs.push_back(extract_features(sample.image, c.features));
  }
  return inputs;
}

/// Batch results must be winner-for-winner identical to sequential
/// recognize() calls on a twin AMM (same seed => same mismatch samples),
/// with bit-identical column currents.
void expect_batch_matches_sequential(SpinAmmConfig config, std::size_t threads) {
  const std::vector<FeatureVector> inputs = all_inputs(config);
  SpinAmm sequential(config);
  SpinAmm batched(config);
  const auto templates = build_templates(testing::small_dataset(), config.features);
  sequential.store_templates(templates);
  batched.store_templates(templates);

  std::vector<Recognition> expected;
  expected.reserve(inputs.size());
  for (const auto& input : inputs) {
    expected.push_back(sequential.recognize(input));
  }
  const std::vector<Recognition> got = batched.recognize_batch(inputs, threads);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].winner, expected[i].winner) << "input " << i;
    EXPECT_EQ(got[i].unique, expected[i].unique) << "input " << i;
    EXPECT_EQ(got[i].dom, expected[i].dom) << "input " << i;
    EXPECT_EQ(got[i].accepted, expected[i].accepted) << "input " << i;
    ASSERT_NE(got[i].spin(), nullptr);
    ASSERT_NE(expected[i].spin(), nullptr);
    const auto& got_currents = got[i].spin()->column_currents;
    const auto& exp_currents = expected[i].spin()->column_currents;
    ASSERT_EQ(got_currents.size(), exp_currents.size());
    for (std::size_t j = 0; j < got_currents.size(); ++j) {
      EXPECT_EQ(got_currents[j], exp_currents[j]) << "input " << i << " column " << j;
    }
  }
}

TEST(RecognizeBatch, MatchesSequentialIdeal) {
  expect_batch_matches_sequential(batch_config(), 1);
}

TEST(RecognizeBatch, MatchesSequentialIdealThreaded) {
  expect_batch_matches_sequential(batch_config(), 4);
}

TEST(RecognizeBatch, MatchesSequentialParasiticTransfer) {
  SpinAmmConfig c = batch_config();
  c.model = CrossbarModel::kParasitic;
  expect_batch_matches_sequential(c, 4);
}

TEST(RecognizeBatch, MatchesSequentialWithThermalNoise) {
  // With thermal noise on, the WTA consumes rng draws per query; the
  // batch path must replay them in input order.
  SpinAmmConfig c = batch_config();
  c.thermal_noise = true;
  expect_batch_matches_sequential(c, 4);
}

TEST(RecognizeBatch, EmptyBatch) {
  const SpinAmmConfig c = batch_config();
  SpinAmm amm(c);
  amm.store_templates(build_templates(testing::small_dataset(), c.features));
  EXPECT_TRUE(amm.recognize_batch({}).empty());
}

TEST(RecognizeBatch, RejectsDimensionMismatch) {
  const SpinAmmConfig c = batch_config();
  SpinAmm amm(c);
  amm.store_templates(build_templates(testing::small_dataset(), c.features));
  FeatureVector bad;
  bad.digital.assign(3, 0);
  bad.analog.assign(3, 0.0);
  EXPECT_THROW(amm.recognize_batch({bad}), InvalidArgument);
}

TEST(RecognizeBatch, RequiresStoredTemplates) {
  SpinAmm amm(batch_config());
  EXPECT_THROW(amm.recognize_batch({}), InvalidArgument);
}

TEST(RecognizeBatch, HierarchicalMatchesSequential) {
  HierarchicalAmmConfig c;
  c.features.height = 8;
  c.features.width = 6;
  c.clusters = 3;
  c.dwn = DwnParams::from_barrier(20.0);
  c.seed = 321;
  const auto templates = build_templates(testing::small_dataset(), c.features);
  const std::vector<FeatureVector> inputs = [] {
    SpinAmmConfig sc = batch_config();
    return all_inputs(sc);
  }();

  HierarchicalAmm sequential(c);
  HierarchicalAmm batched(c);
  sequential.store_templates(templates);
  batched.store_templates(templates);

  std::vector<Recognition> expected;
  for (const auto& input : inputs) {
    expected.push_back(sequential.recognize(input));
  }
  const std::vector<Recognition> got = batched.recognize_batch(inputs, 2);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].winner, expected[i].winner) << "input " << i;
    ASSERT_NE(got[i].hierarchical(), nullptr);
    ASSERT_NE(expected[i].hierarchical(), nullptr);
    EXPECT_EQ(got[i].hierarchical()->cluster, expected[i].hierarchical()->cluster) << "input " << i;
    EXPECT_EQ(got[i].hierarchical()->router_dom, expected[i].hierarchical()->router_dom)
        << "input " << i;
    EXPECT_EQ(got[i].dom, expected[i].dom) << "input " << i;
    EXPECT_EQ(got[i].unique, expected[i].unique) << "input " << i;
  }
}

}  // namespace
}  // namespace spinsim
