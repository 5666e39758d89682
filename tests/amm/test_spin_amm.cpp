#include "amm/spin_amm.hpp"

#include <gtest/gtest.h>

#include "amm/evaluation.hpp"
#include "support/shared_dataset.hpp"

namespace spinsim {
namespace {

/// Fast config bound to the small test dataset (10 people, 8x6 features).
SpinAmmConfig small_config() {
  SpinAmmConfig c;
  c.features.height = 8;
  c.features.width = 6;
  c.features.bits = 5;
  c.templates = 10;
  c.dwn = DwnParams::from_barrier(20.0);
  c.seed = 77;
  return c;
}

std::vector<FeatureVector> small_templates(const SpinAmmConfig& c) {
  return build_templates(testing::small_dataset(), c.features);
}

TEST(SpinAmm, RecognisesTrainingImages) {
  const SpinAmmConfig c = small_config();
  SpinAmm amm(c);
  amm.store_templates(small_templates(c));

  const FaceDataset& ds = testing::small_dataset();
  int correct = 0;
  int total = 0;
  for (const auto& sample : ds.all()) {
    const auto r = amm.recognize(extract_features(sample.image, c.features));
    if (r.winner == sample.individual) {
      ++correct;
    }
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.85);
}

TEST(SpinAmm, WinnerAgreesWithIdealClassifierOnMostInputs) {
  const SpinAmmConfig c = small_config();
  SpinAmm amm(c);
  const auto templates = small_templates(c);
  amm.store_templates(templates);

  const FaceDataset& ds = testing::small_dataset();
  int agree = 0;
  int total = 0;
  for (const auto& sample : ds.all()) {
    const FeatureVector f = extract_features(sample.image, c.features);
    if (amm.recognize(f).winner == classify_ideal(f, templates)) {
      ++agree;
    }
    ++total;
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.8);
}

TEST(SpinAmm, DomAndMarginArePlausible) {
  const SpinAmmConfig c = small_config();
  SpinAmm amm(c);
  amm.store_templates(small_templates(c));
  const auto f = extract_features(testing::small_dataset().image(4, 0), c.features);
  const auto r = amm.recognize(f);
  EXPECT_GT(r.dom, 0u);
  EXPECT_LE(r.dom, 31u);
  EXPECT_GT(r.margin, -1.0);
  EXPECT_LT(r.margin, 1.0);
  ASSERT_NE(r.spin(), nullptr);
  EXPECT_EQ(r.spin()->column_currents.size(), c.templates);
}

TEST(SpinAmm, ColumnCurrentsBoundedByFullScale) {
  const SpinAmmConfig c = small_config();
  SpinAmm amm(c);
  amm.store_templates(small_templates(c));
  const auto f = extract_features(testing::small_dataset().image(0, 0), c.features);
  for (double i : amm.column_currents(f)) {
    EXPECT_GE(i, 0.0);
    EXPECT_LT(i, 1.5 * c.full_scale_current());
  }
}

TEST(SpinAmm, AcceptThresholdRejectsWeakMatches) {
  SpinAmmConfig c = small_config();
  c.accept_threshold = 31;  // nearly impossible DOM
  SpinAmm amm(c);
  amm.store_templates(small_templates(c));
  const auto f = extract_features(testing::small_dataset().image(0, 0), c.features);
  const auto r = amm.recognize(f);
  EXPECT_EQ(r.accepted, r.dom >= 31u);
}

TEST(SpinAmm, ParasiticModelStillRecognises) {
  SpinAmmConfig c = small_config();
  c.model = CrossbarModel::kParasitic;
  SpinAmm amm(c);
  amm.store_templates(small_templates(c));
  const FaceDataset& ds = testing::small_dataset();
  int correct = 0;
  for (std::size_t p = 0; p < ds.individuals(); ++p) {
    const auto f = extract_features(ds.image(p, 0), c.features);
    if (amm.recognize(f).winner == p) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 8);
}

TEST(SpinAmm, ParasiticCurrentsCloseToIdealAtPaperWiring) {
  SpinAmmConfig ideal_c = small_config();
  SpinAmmConfig para_c = small_config();
  para_c.model = CrossbarModel::kParasitic;
  SpinAmm ideal_amm(ideal_c);
  SpinAmm para_amm(para_c);
  ideal_amm.store_templates(small_templates(ideal_c));
  para_amm.store_templates(small_templates(para_c));

  const auto f = extract_features(testing::small_dataset().image(2, 1), ideal_c.features);
  const auto ii = ideal_amm.column_currents(f);
  const auto pp = para_amm.column_currents(f);
  for (std::size_t j = 0; j < ii.size(); ++j) {
    EXPECT_NEAR(pp[j], ii[j], 0.1 * ii[j] + 1e-9);
  }
}

TEST(SpinAmm, DeterministicForFixedSeed) {
  const SpinAmmConfig c = small_config();
  SpinAmm a(c);
  SpinAmm b(c);
  a.store_templates(small_templates(c));
  b.store_templates(small_templates(c));
  const auto f = extract_features(testing::small_dataset().image(3, 2), c.features);
  const auto ra = a.recognize(f);
  const auto rb = b.recognize(f);
  EXPECT_EQ(ra.winner, rb.winner);
  EXPECT_EQ(ra.dom, rb.dom);
}

TEST(SpinAmm, OverrideAtCalibratedScaleIsBitIdentical) {
  // A twin told the scale its sibling calibrated skips calibration, yet
  // must realise the very same input-DAC bank: both paths fork the
  // engine's stream at the same points, so every current and answer
  // matches to the bit. LeafCacheEngine's reloads rely on this.
  const FaceDataset& ds = testing::small_dataset();
  for (const CrossbarModel model : {CrossbarModel::kIdeal, CrossbarModel::kParasitic}) {
    SpinAmmConfig c = small_config();
    c.model = model;
    c.thermal_noise = true;
    SpinAmm calibrated(c);
    calibrated.store_templates(small_templates(c));
    c.input_full_scale_override = calibrated.input_full_scale();
    SpinAmm twin(c);
    twin.store_templates(small_templates(c));
    ASSERT_EQ(twin.input_full_scale(), calibrated.input_full_scale());

    for (const auto& sample : ds.all()) {
      const FeatureVector f = extract_features(sample.image, c.features);
      EXPECT_EQ(twin.column_currents(f), calibrated.column_currents(f));
      const Recognition got = twin.recognize(f);
      const Recognition expected = calibrated.recognize(f);
      EXPECT_EQ(got.winner, expected.winner);
      EXPECT_EQ(got.unique, expected.unique);
      EXPECT_EQ(got.dom, expected.dom);
      EXPECT_EQ(got.score, expected.score);
      EXPECT_EQ(got.margin, expected.margin);
      EXPECT_EQ(got.accepted, expected.accepted);
      ASSERT_NE(got.spin(), nullptr);
      ASSERT_NE(expected.spin(), nullptr);
      EXPECT_EQ(got.spin()->wta.dom_codes, expected.spin()->wta.dom_codes);
    }
  }
}

TEST(SpinAmm, PowerReportMatchesStandaloneModel) {
  const SpinAmmConfig c = small_config();
  SpinAmm amm(c);
  const PowerReport r = amm.power();
  const PowerReport ref = spin_amm_power(amm.power_design());
  EXPECT_DOUBLE_EQ(r.total().in(units::W), ref.total().in(units::W));
  EXPECT_GT(r.total(), Power{});
}

TEST(SpinAmm, RecognizeBeforeStoreThrows) {
  SpinAmm amm(small_config());
  FeatureVector f;
  f.spec = small_config().features;
  f.analog.assign(48, 0.5);
  f.digital.assign(48, 16);
  EXPECT_THROW(amm.recognize(f), InvalidArgument);
}

TEST(SpinAmm, TemplateShapeValidated) {
  const SpinAmmConfig c = small_config();
  SpinAmm amm(c);
  std::vector<FeatureVector> bad(c.templates);
  for (auto& t : bad) {
    t.analog.assign(5, 0.5);  // wrong dimension
    t.digital.assign(5, 10);
  }
  EXPECT_THROW(amm.store_templates(bad), InvalidArgument);
}

TEST(SpinAmm, PaperScalePipelineRuns) {
  // Full 128x40 configuration on a handful of images.
  SpinAmmConfig c;
  c.dwn = DwnParams::from_barrier(20.0);
  SpinAmm amm(c);
  const FaceDataset& ds = testing::paper_dataset();
  amm.store_templates(build_templates(ds, c.features));
  int correct = 0;
  for (std::size_t p = 0; p < 10; ++p) {
    const auto f = extract_features(ds.image(p * 4, 0), c.features);
    if (amm.recognize(f).winner == p * 4) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 8);
}

}  // namespace
}  // namespace spinsim
