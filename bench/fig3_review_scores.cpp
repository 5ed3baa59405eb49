// Figure 3: violin plots of review scores at a top distributed-systems
// conference — merit, quality, and topic, split by article category.
// Prints every statistic the figure draws (mean star, median dot, IQR
// bar, clipped whiskers, and the mass below score 3).

#include <cstdio>

#include "atlarge/design/review.hpp"
#include "atlarge/stats/violin.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace atlarge;
  bench::parse_flags(argc, argv, {});  // takes no flags
  bench::header("Figure 3: review-score violins by article category");

  design::ReviewModelConfig config;
  config.articles = 400;
  config.seed = 2019;
  const auto reviews = design::generate_reviews(config);
  bench::note("synthetic review corpus, " +
              std::to_string(config.articles) +
              " articles, 3-5 reviewers each, scores in [1,4]");

  for (auto aspect : {design::ReviewAspect::kMerit,
                      design::ReviewAspect::kQuality,
                      design::ReviewAspect::kTopic}) {
    const auto group = design::violins_by_category(reviews, aspect);
    std::printf("\n%s", stats::render_table(group, 3.0).c_str());
  }

  // The two findings, checked numerically.
  const auto merit =
      design::violins_by_category(reviews, design::ReviewAspect::kMerit);
  const auto& design_v = merit.violins[0];
  const auto& nondesign_v = merit.violins[1];
  std::printf("\nFinding (1): design vs non-design merit: median %.2f vs "
              "%.2f, mean %.2f vs %.2f -> design slightly better: %s\n",
              design_v.stats.median, nondesign_v.stats.median,
              design_v.stats.mean, nondesign_v.stats.mean,
              design_v.stats.mean > nondesign_v.stats.mean ? "YES" : "no");
  const double below =
      100.0 * static_cast<double>(design_v.below(3.0)) /
      static_cast<double>(design_v.stats.count);
  std::printf("Finding (2): %.0f%% of design articles score below 3 -> a "
              "significant share is not high-merit: %s\n",
              below, below > 30.0 ? "YES" : "no");
  const auto topic =
      design::violins_by_category(reviews, design::ReviewAspect::kTopic);
  std::printf("Finding (3): topic-fit mean %.2f (of 4) -> CfP focuses "
              "authors: %s\n",
              topic.violins[0].stats.mean,
              topic.violins[0].stats.mean > 3.0 ? "YES" : "no");
  return 0;
}
