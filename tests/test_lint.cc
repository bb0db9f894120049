/**
 * @file
 * Self-tests for simlint, the project-native static checker.
 *
 * Each tests/lint/bad_*.cc fixture must trip exactly its advertised
 * rule id; the good fixtures and the real source tree must come back
 * clean. The S004 fixture trees are miniature snapshot pipelines
 * (processor.hh / processor.cc) that prove a Snapshot field cannot
 * escape Processor::restore() silently.
 *
 * The driver shells out to the real binary (SIMLINT_BIN, injected by
 * CMake) so the exit-code contract is tested exactly as CI uses it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

namespace {

struct LintRun {
    int exitCode;
    std::string output;
};

LintRun
runSimlint(const std::string &args)
{
    std::string cmd = std::string(SIMLINT_BIN) + " " + args + " 2>&1";
    FILE *p = popen(cmd.c_str(), "r");
    EXPECT_NE(p, nullptr) << cmd;
    if (!p)
        return {-1, ""};
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        out.append(buf, n);
    int status = pclose(p);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

std::string
fixture(const std::string &name)
{
    return std::string(CLUSTERSIM_LINT_FIXTURES) + "/" + name;
}

/** A bad fixture must exit non-zero and name its rule id. */
void
expectFires(const std::string &file, const std::string &rule)
{
    LintRun r = runSimlint("--no-stats --quiet " + fixture(file));
    EXPECT_NE(r.exitCode, 0) << file << "\n" << r.output;
    EXPECT_NE(r.output.find(rule), std::string::npos)
        << file << " should report " << rule << "; got:\n" << r.output;
}

} // namespace

TEST(SimlintSelfTest, BadFixturesFireTheirRule)
{
    expectFires("bad_d001.cc", "D001");
    expectFires("bad_d002.cc", "D002");
    expectFires("bad_d003.cc", "D003");
    expectFires("bad_d004.cc", "D004");
    expectFires("bad_d005.cc", "D005");
    expectFires("bad_h001.cc", "H001");
    expectFires("bad_h002.cc", "H002");
    expectFires("bad_h003.cc", "H003");
    expectFires("bad_h004.cc", "H004");
    expectFires("bad_t001.cc", "T001");
    expectFires("bad_l001.cc", "L001");
    expectFires("bad_c001.cc", "C001");
    expectFires("bad_c002.cc", "C002");
    expectFires("bad_c003.cc", "C003");
    expectFires("bad_c004.cc", "C004");
    expectFires("bad_c005.cc", "C005");
    expectFires("bad_f001.cc", "F001");
}

TEST(SimlintSelfTest, ConcurrencyRulesPassOnDisciplinedCode)
{
    // Annotated members, reasoned suppressions, predicate waits, a
    // DAG lock order, declared guards, and a blessed launcher file:
    // every C rule's negative case in one fixture.
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("good_concurrency.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(SimlintSelfTest, LockOrderCycleNamesTheCycle)
{
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("bad_c004.cc"));
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("C004"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("a_ -> b_ -> c_ -> a_"), std::string::npos)
        << "the finding should spell out the cycle:\n" << r.output;
}

TEST(SimlintSelfTest, LockGraphDumpListsDeclaredEdges)
{
    LintRun r = runSimlint("--no-stats --quiet --lock-graph " +
                           fixture("bad_c004.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("a_ -> b_"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("c_ -> a_"), std::string::npos) << r.output;
}

TEST(SimlintSelfTest, RuleSelectionFiltersByCategory)
{
    // The same fixture is clean under --rules D and fires under
    // --rules C: selection gates both the findings and the exit code.
    LintRun rd = runSimlint("--no-stats --quiet --rules D " +
                            fixture("bad_c001.cc"));
    EXPECT_EQ(rd.exitCode, 0) << rd.output;
    LintRun rc = runSimlint("--no-stats --quiet --rules C " +
                            fixture("bad_c001.cc"));
    EXPECT_NE(rc.exitCode, 0);
    EXPECT_NE(rc.output.find("C001"), std::string::npos) << rc.output;
}

TEST(SimlintSelfTest, SummaryLineReportsPerRuleCounts)
{
    // Without --quiet the stderr summary carries the file count, the
    // per-rule breakdown, and a wall time.
    LintRun r = runSimlint("--no-stats " + fixture("bad_c001.cc"));
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("1 file(s)"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("[C001 x1]"), std::string::npos) << r.output;
}

TEST(SimlintSelfTest, TraceGateRuleSparesColdRegions)
{
    // The T001 fixture names the sink on one hot-path line (two
    // identifiers, so two findings) and again inside a cold region,
    // which must stay silent.
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("bad_t001.cc"));
    EXPECT_NE(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("T001"), std::string::npos) << r.output;
    EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 2)
        << "only the hot-path line should fire:\n" << r.output;
}

TEST(SimlintSelfTest, HotPathRulesStayQuietWithoutAnnotation)
{
    // The H002 fixture minus its hot-path annotation is ordinary cold
    // code: strip the annotation by scanning the D-rule-only good file
    // instead (push_back/new outside hot files must not fire).
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("good_clean.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(SimlintSelfTest, SuppressionsAndColdRegionsSilenceFindings)
{
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("good_suppressed.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

// The statistics and the controllers' checkpointed state are guarded by
// the per-file field-list rule F001: each type names its members once,
// in fields(), and every walker (checkpoint, report, comparator) reads
// that list.

TEST(SimlintSelfTest, StatsRulesCatchEscapedCounters)
{
    // A statistic left out of its type's fields() list is reported;
    // the listed one stays silent.
    LintRun r = runSimlint("--no-stats --quiet " + fixture("bad_f001.cc"));
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("F001"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("Stats::scratchCounter"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("Stats::cycles"), std::string::npos)
        << r.output;
}

TEST(SimlintSelfTest, ControllerRuleCatchesEscapedState)
{
    // A controller member and a member of its nested element type left
    // out of their fields() lists are reported.
    LintRun r = runSimlint("--no-stats --quiet " + fixture("bad_f001.cc"));
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("Probe::ghostTarget_"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("Entry::orphan"), std::string::npos)
        << r.output;
    // Listed members, the suppressed identity member, the nested type
    // itself and a class without fields() stay silent: the fixture's
    // three findings are the statistic and the two above.
    EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 3)
        << r.output;
    EXPECT_EQ(r.output.find("committed_"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("params_"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("Unlisted"), std::string::npos) << r.output;
}

TEST(SimlintSelfTest, StatsRulesPassOnCoveredTree)
{
    // Every statistic listed by name, also inside a conditional block
    // and through a nested counter's own list: clean.
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("good_stats_fields.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(SimlintSelfTest, ControllerRulePassesOnCoveredTree)
{
    // Every member listed or suppressed with a reason; statics, aliases,
    // nested types and member functions are not data members.
    LintRun r = runSimlint("--no-stats --quiet " +
                           fixture("good_fields.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(SimlintSelfTest, SnapshotRuleCatchesEscapedFields)
{
    std::string tree = fixture("s_snap_bad");
    LintRun r = runSimlint("--quiet --project-root " + tree + " " +
                           tree + "/src");
    EXPECT_NE(r.exitCode, 0);
    // ghostPending is never applied by restore().
    EXPECT_NE(r.output.find("S004"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("ghostPending"), std::string::npos)
        << r.output;
    // The applied field stays silent.
    EXPECT_EQ(r.output.find("Snapshot::cycle"), std::string::npos)
        << r.output;
}

TEST(SimlintSelfTest, SnapshotRulePassesOnCoveredTree)
{
    // Full restore coverage plus one deliberately transient field
    // behind written S004 and F001 suppressions: clean.
    std::string tree = fixture("s_snap_good");
    LintRun r = runSimlint("--quiet --project-root " + tree + " " +
                           tree + "/src");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(SimlintSelfTest, FixListSummarizesByRule)
{
    LintRun r = runSimlint("--no-stats --quiet --fix-list " +
                           fixture("bad_d001.cc"));
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("fix list:"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("D001"), std::string::npos) << r.output;
}

TEST(SimlintSelfTest, RealSourceTreeIsClean)
{
    // The acceptance gate: the shipped tree carries no diagnostics —
    // every finding is fixed or suppressed with a written reason.
    std::string root = CLUSTERSIM_SOURCE_ROOT;
    LintRun r = runSimlint("--quiet --project-root " + root + " " +
                           root + "/src");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
}
