#include "charlib/io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../test_util.h"
#include "util/require.h"

namespace rgleak::charlib {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_chars_mc;
using rgleak::testing::mini_library;

TEST(CharIo, RoundTripAnalytic) {
  const auto& orig = mini_chars_analytic();
  std::stringstream buf;
  save_characterization(orig, buf);
  const CharacterizedLibrary loaded = load_characterization(mini_library(), buf);

  ASSERT_EQ(loaded.size(), orig.size());
  EXPECT_TRUE(loaded.has_models());
  for (std::size_t ci = 0; ci < orig.size(); ++ci) {
    for (std::size_t s = 0; s < orig.cell(ci).states.size(); ++s) {
      const auto& a = orig.cell(ci).states[s];
      const auto& b = loaded.cell(ci).states[s];
      EXPECT_DOUBLE_EQ(a.mean_na, b.mean_na);
      EXPECT_DOUBLE_EQ(a.sigma_na, b.sigma_na);
      ASSERT_TRUE(b.model.has_value());
      EXPECT_DOUBLE_EQ(a.model->a, b.model->a);
      EXPECT_DOUBLE_EQ(a.model->b, b.model->b);
      EXPECT_DOUBLE_EQ(a.model->c, b.model->c);
    }
  }
}

TEST(CharIo, RoundTripProcessDescription) {
  const auto& orig = mini_chars_analytic();
  std::stringstream buf;
  save_characterization(orig, buf);
  const CharacterizedLibrary loaded = load_characterization(mini_library(), buf);
  const auto& po = orig.process();
  const auto& pl = loaded.process();
  EXPECT_DOUBLE_EQ(pl.length().mean_nm, po.length().mean_nm);
  EXPECT_DOUBLE_EQ(pl.length().sigma_d2d_nm, po.length().sigma_d2d_nm);
  EXPECT_DOUBLE_EQ(pl.length().sigma_wid_nm, po.length().sigma_wid_nm);
  EXPECT_DOUBLE_EQ(pl.vt().sigma_v, po.vt().sigma_v);
  EXPECT_EQ(pl.wid_correlation().name(), po.wid_correlation().name());
  // Correlation function survives (scale recovered by inversion).
  for (double d : {1e3, 1e4, 5e4})
    EXPECT_NEAR(pl.wid_correlation()(d), po.wid_correlation()(d), 1e-6);
}

TEST(CharIo, RoundTripMcWithoutModels) {
  const auto& orig = mini_chars_mc();
  std::stringstream buf;
  save_characterization(orig, buf);
  const CharacterizedLibrary loaded = load_characterization(mini_library(), buf);
  EXPECT_FALSE(loaded.has_models());
  EXPECT_DOUBLE_EQ(loaded.cell(0).states[0].mean_na, orig.cell(0).states[0].mean_na);
}

TEST(CharIo, RoundTripAnisotropy) {
  process::LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = len.sigma_wid_nm = 1.25;
  process::CorrelationAnisotropy an;
  an.scale_x = 2.5;
  an.scale_y = 0.8;
  const process::ProcessVariation p(
      len, process::VtVariation{}, std::make_shared<process::ExponentialCorrelation>(2.0e4),
      an);
  const CharacterizedLibrary chars = characterize_analytic(mini_library(), p);
  std::stringstream buf;
  save_characterization(chars, buf);
  const CharacterizedLibrary loaded = load_characterization(mini_library(), buf);
  EXPECT_DOUBLE_EQ(loaded.process().anisotropy().scale_x, 2.5);
  EXPECT_DOUBLE_EQ(loaded.process().anisotropy().scale_y, 0.8);
  EXPECT_NEAR(loaded.process().total_length_correlation_xy(1e4, 2e4),
              p.total_length_correlation_xy(1e4, 2e4), 1e-9);
}

TEST(CharIo, RejectsBadHeader) {
  std::stringstream buf("not-a-charlib\n");
  try {
    (void)load_characterization(mini_library(), buf, "bad.rgchar");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.source(), "bad.rgchar");
    EXPECT_EQ(e.line(), 1u);
  }
}

TEST(CharIo, RejectsWrongLibrary) {
  // Serialize the mini library, try to load against the full library.
  std::stringstream buf;
  save_characterization(mini_chars_analytic(), buf);
  EXPECT_THROW(load_characterization(rgleak::testing::full_library(), buf), ParseError);
}

TEST(CharIo, RejectsTruncatedFile) {
  std::stringstream full;
  save_characterization(mini_chars_analytic(), full);
  const std::string text = full.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  try {
    (void)load_characterization(mini_library(), truncated);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GT(e.line(), 1u);
  }
}

// The library expands every model into its Hermite series at load; a triplet
// whose leakage moments do not exist at the file's sigma is refused at its own
// line, not deep inside that expansion.
TEST(CharIo, CorpusModelTripletsWithoutMomentsFailWithLocatedParseError) {
  const struct {
    const char* file;
    std::size_t line;
  } cases[] = {{"bad_model_nonpositive_a.rgchar", 9}, {"bad_model_diverging_moments.rgchar", 30}};
  for (const auto& c : cases) {
    const std::string path = std::string(RGLEAK_CHARLIB_CORPUS_DIR) + "/" + c.file;
    try {
      (void)load_characterization(mini_library(), path);
      ADD_FAILURE() << c.file << ": expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.source(), path);
      EXPECT_EQ(e.line(), c.line) << c.file;
    }
  }
}

TEST(CharIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/rgleak_test.rgchar";
  save_characterization(mini_chars_analytic(), path);
  const CharacterizedLibrary loaded = load_characterization(mini_library(), path);
  EXPECT_EQ(loaded.size(), mini_chars_analytic().size());
  EXPECT_THROW(load_characterization(mini_library(), path + ".missing"), IoError);
}

}  // namespace
}  // namespace rgleak::charlib
