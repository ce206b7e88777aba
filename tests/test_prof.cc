/**
 * @file
 * Unit tests for the built-in profiler (common/prof.hh).
 *
 * The binary arms MMGPU_PROFILE=1 from a custom main() before the
 * first enabled() call caches the environment, so Scope/Counter
 * sampling is live in every test. The zero-overhead claim of the
 * disabled path is covered by CI's perf-smoke stage, not here — a
 * unit test cannot observe "one predictable branch".
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/prof.hh"
#include "common/wallclock.hh"

namespace
{

using namespace mmgpu;

/** Find @p label in a snapshot; nullptr when absent. */
const prof::SiteSnapshot *
find(const std::vector<prof::SiteSnapshot> &sites,
     const std::string &label)
{
    for (const prof::SiteSnapshot &site : sites)
        if (site.label == label)
            return &site;
    return nullptr;
}

TEST(Prof, EnabledReflectsTheEnvironment)
{
    // main() set MMGPU_PROFILE=1 before anything could cache it.
    EXPECT_TRUE(prof::enabled());
}

TEST(Prof, ScopeAggregatesCallsAndTimeIntoItsSite)
{
    static prof::Site site("test/scope_aggregates");
    for (int i = 0; i < 3; ++i) {
        prof::Scope scope(site);
        wallclock::sleepMs(1);
    }
    EXPECT_EQ(site.calls(), 3u);
    EXPECT_GE(site.inclusiveNs(), 3u * 1000000u);
    EXPECT_LE(site.exclusiveNs(), site.inclusiveNs());
}

TEST(Prof, NestedScopesAttributeChildTimeToTheChild)
{
    static prof::Site parent("test/nest_parent");
    static prof::Site child("test/nest_child");
    {
        prof::Scope outer(parent);
        wallclock::sleepMs(1);
        {
            prof::Scope inner(child);
            wallclock::sleepMs(2);
        }
    }
    EXPECT_EQ(parent.calls(), 1u);
    EXPECT_EQ(child.calls(), 1u);
    // The parent's inclusive time covers the child; its exclusive
    // time must not (the child's interval was subtracted out).
    EXPECT_GE(parent.inclusiveNs(), child.inclusiveNs());
    EXPECT_LT(parent.exclusiveNs(), parent.inclusiveNs());
    // Child is a leaf: inclusive == exclusive.
    EXPECT_EQ(child.inclusiveNs(), child.exclusiveNs());
}

TEST(Prof, ProfScopeMacroTimesTheEnclosingScope)
{
    auto timed = [] {
        MMGPU_PROF_SCOPE("test/macro_scope");
        wallclock::sleepMs(1);
    };
    timed();
    timed();
    const std::vector<prof::SiteSnapshot> sites = prof::snapshot();
    const prof::SiteSnapshot *snap = find(sites, "test/macro_scope");
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->calls, 2u);
    EXPECT_GE(snap->inclusiveNs, 2u * 1000000u);
}

TEST(Prof, CountMacroAccumulatesWithoutTiming)
{
    for (int i = 0; i < 5; ++i)
        MMGPU_PROF_COUNT("test/count_macro", 2);
    const std::vector<prof::SiteSnapshot> sites = prof::snapshot();
    const prof::SiteSnapshot *snap = find(sites, "test/count_macro");
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->count, 10u);
    EXPECT_EQ(snap->calls, 0u);
}

TEST(Prof, DynamicSiteIsStableAndSharedPerLabel)
{
    prof::Site *a = prof::dynamicSite("test/dynamic7");
    prof::Site *b = prof::dynamicSite("test/dynamic7");
    ASSERT_EQ(a, b);
    a->addSample(100, 100);
    const std::vector<prof::SiteSnapshot> sites = prof::snapshot();
    const prof::SiteSnapshot *snap = find(sites, "test/dynamic7");
    ASSERT_NE(snap, nullptr);
    EXPECT_GE(snap->calls, 1u);
}

TEST(Prof, SnapshotOmitsUntouchedSitesAndSortsByExclusive)
{
    static prof::Site untouched("test/never_used");
    (void)untouched;
    static prof::Site heavy("test/sort_heavy");
    static prof::Site light("test/sort_light");
    heavy.addSample(5000000, 5000000);
    light.addSample(1000, 1000);
    const std::vector<prof::SiteSnapshot> sites = prof::snapshot();
    EXPECT_EQ(find(sites, "test/never_used"), nullptr);
    std::size_t heavy_at = sites.size();
    std::size_t light_at = sites.size();
    for (std::size_t i = 0; i < sites.size(); ++i) {
        if (sites[i].label == "test/sort_heavy")
            heavy_at = i;
        if (sites[i].label == "test/sort_light")
            light_at = i;
    }
    ASSERT_LT(heavy_at, sites.size());
    ASSERT_LT(light_at, sites.size());
    EXPECT_LT(heavy_at, light_at);
    for (std::size_t i = 1; i < sites.size(); ++i)
        EXPECT_GE(sites[i - 1].exclusiveNs, sites[i].exclusiveNs);
}

TEST(Prof, SnapshotJsonParsesAndCarriesTheSites)
{
    static prof::Site site("test/json_site");
    site.addSample(42, 42);
    const std::string json = prof::snapshotJson();
    std::optional<JsonValue> doc = parseJson(json);
    ASSERT_TRUE(doc.has_value()) << json;
    const JsonValue *sites = doc->find("sites");
    ASSERT_NE(sites, nullptr);
    EXPECT_NE(json.find("\"test/json_site\""), std::string::npos);
    EXPECT_NE(json.find("\"inclusive_ns\""), std::string::npos);
}

TEST(Prof, WriteJsonRoundTripsThroughAFile)
{
    static prof::Site site("test/write_json");
    site.addSample(7, 7);
    std::string path =
        testing::TempDir() + "/mmgpu_prof_test.json";
    ASSERT_TRUE(prof::writeJson(path));
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), prof::snapshotJson());
    std::remove(path.c_str());
}

TEST(Prof, WriteJsonFailsCleanlyOnAnUnwritablePath)
{
    EXPECT_FALSE(prof::writeJson("/nonexistent-dir/prof.json"));
}

} // namespace

int
main(int argc, char **argv)
{
    // Before the first prof::enabled() call caches the environment.
    setenv("MMGPU_PROFILE", "1", 1);
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
