/**
 * @file
 * Self-test for decepticon-lint: every rule fires on its bad
 * fixture, stays silent on the good fixture, suppressions are
 * honored (and justification-free ones are not), and the JSON report
 * is byte-identical across runs. The fixture corpus lives
 * in tools/lint/fixtures/{good_repo,bad_repo} and shares one layers
 * config (modules a=0, b=1); R11 (reachability) has its own repo and
 * config, fixtures/reach_repo and fixtures/reach.toml.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint.hh"

namespace lint = decepticon::lint;

namespace {

std::string
fixtures()
{
    return LINT_FIXTURE_DIR;
}

lint::Config
fixtureConfig()
{
    lint::Config cfg;
    std::string err;
    EXPECT_TRUE(lint::loadConfig(fixtures() + "/layers.toml", cfg, &err))
        << err;
    return cfg;
}

int
countRuleInFile(const lint::Report &r, const std::string &rule,
                const std::string &file)
{
    return static_cast<int>(std::count_if(
        r.violations.begin(), r.violations.end(),
        [&](const lint::Violation &v) {
            return v.rule == rule && v.file == file;
        }));
}

} // namespace

TEST(Lint, GoodRepoIsClean)
{
    const lint::Report r =
        lint::runLint(fixtures() + "/good_repo", fixtureConfig());
    EXPECT_EQ(r.filesScanned, 9u);
    EXPECT_TRUE(r.violations.empty())
        << lint::renderText(r)
        << "good fixture must produce zero unsuppressed violations";
    ASSERT_EQ(r.suppressed.size(), 2u);
    EXPECT_EQ(r.suppressed[0].rule, "R3");
    EXPECT_EQ(r.suppressed[0].file, "src/a/clean.cc");
    EXPECT_NE(r.suppressed[0].justification.find("commutes"),
              std::string::npos)
        << "multi-line justification text must be captured";
    // The justified R7 suppression is honored and not flagged stale.
    EXPECT_EQ(r.suppressed[1].rule, "R7");
    EXPECT_EQ(r.suppressed[1].file, "src/a/r7_suppressed.cc");
    EXPECT_NE(r.suppressed[1].justification.find("full grain"),
              std::string::npos);
}

TEST(Lint, BadRepoFiresEveryRule)
{
    const lint::Report r =
        lint::runLint(fixtures() + "/bad_repo", fixtureConfig());

    // R1: rand, srand, random_device, time(nullptr), steady_clock::now
    // in r1_nondet.cc, plus the bare-suppressed rand in r5_stale.cc.
    EXPECT_EQ(countRuleInFile(r, "R1", "src/a/r1_nondet.cc"), 5);
    EXPECT_EQ(countRuleInFile(r, "R1", "src/a/r5_stale.cc"), 1)
        << "a suppression without justification must not suppress";

    // R2: the upward include and the intra-module file cycle.
    EXPECT_EQ(countRuleInFile(r, "R2", "src/a/upward.cc"), 1);
    EXPECT_EQ(countRuleInFile(r, "R2", "src/a/cycle_a.hh"), 1);

    // R3: exactly the unordered range-for (the vector loop is fine).
    EXPECT_EQ(countRuleInFile(r, "R3", "src/a/r3_unordered.cc"), 1);

    // R4: std::thread, std::async, #pragma omp.
    EXPECT_EQ(countRuleInFile(r, "R4", "src/a/r4_threads.cc"), 3);

    // R5: missing guard, rogue getenv, untagged to-do marker, stale
    // suppression, plus the v2 stale/unknown-id cases below.
    EXPECT_EQ(countRuleInFile(r, "R5", "src/a/r5_unguarded.hh"), 1);
    EXPECT_EQ(countRuleInFile(r, "R5", "src/a/r5_env_todo.cc"), 2);
    EXPECT_EQ(countRuleInFile(r, "R5", "src/a/r5_stale.cc"), 1);

    // R6: std::cout, std::cerr, fprintf — snprintf and the literal
    // containing "std::cout" must not fire.
    EXPECT_EQ(countRuleInFile(r, "R6", "src/a/r6_print.cc"), 3);

    // R7: the by-ref shared Rng advanced from the task body.
    EXPECT_EQ(countRuleInFile(r, "R7", "src/a/r7_shared_rng.cc"), 1);

    // R8: += on the by-ref-captured double inside the task.
    EXPECT_EQ(countRuleInFile(r, "R8", "src/a/r8_reduction.cc"), 1);

    // R9: the intra-file ABBA inversion, plus the cross-TU cycle that
    // only exists after one level of call-graph propagation (each
    // cross file alone is consistent).
    EXPECT_EQ(countRuleInFile(r, "R9", "src/a/r9_inversion.cc"), 1);
    EXPECT_EQ(countRuleInFile(r, "R9", "src/a/r9_cross_a.cc"), 1);

    // R5 (v2): one stale suppression per rule id R7–R9, plus the
    // unknown-id errors (the retired R10 and the typo'd R42) — an
    // unknown id must never be silently inert.
    EXPECT_EQ(countRuleInFile(r, "R5", "src/a/r7_r10_stale.cc"), 5);
    int unknownId = 0;
    for (const lint::Violation &v : r.violations)
        if (v.message.find("unknown rule id 'R42'") != std::string::npos)
            ++unknownId;
    EXPECT_EQ(unknownId, 1);

    EXPECT_EQ(r.violations.size(), 28u) << lint::renderText(r);
    EXPECT_TRUE(r.suppressed.empty());

    // Rule counts in the report must agree with the raw list.
    EXPECT_EQ(r.countsByRule.at("R1"), 6);
    EXPECT_EQ(r.countsByRule.at("R2"), 2);
    EXPECT_EQ(r.countsByRule.at("R3"), 1);
    EXPECT_EQ(r.countsByRule.at("R4"), 3);
    EXPECT_EQ(r.countsByRule.at("R5"), 9);
    EXPECT_EQ(r.countsByRule.at("R6"), 3);
    EXPECT_EQ(r.countsByRule.at("R7"), 1);
    EXPECT_EQ(r.countsByRule.at("R8"), 1);
    EXPECT_EQ(r.countsByRule.at("R9"), 2);
}

TEST(Lint, ViolationLinesPointAtTheConstruct)
{
    const lint::Report r =
        lint::runLint(fixtures() + "/bad_repo", fixtureConfig());
    auto lineOf = [&](const std::string &file, const std::string &rule) {
        for (const lint::Violation &v : r.violations)
            if (v.file == file && v.rule == rule)
                return v.line;
        return -1;
    };
    EXPECT_EQ(lineOf("src/a/upward.cc", "R2"), 2);
    EXPECT_EQ(lineOf("src/a/r3_unordered.cc", "R3"), 10);
    EXPECT_EQ(lineOf("src/a/r5_unguarded.hh", "R5"), 1);
    // R7 anchors at the first shared use.
    EXPECT_EQ(lineOf("src/a/r7_shared_rng.cc", "R7"), 23);
}

TEST(Lint, JsonReportIsByteIdenticalAcrossRuns)
{
    const lint::Config cfg = fixtureConfig();
    lint::Report a = lint::runLint(fixtures() + "/bad_repo", cfg);
    lint::Report b = lint::runLint(fixtures() + "/bad_repo", cfg);
    const std::string ja = lint::renderJson(a);
    const std::string jb = lint::renderJson(b);
    EXPECT_EQ(ja, jb);
    EXPECT_NE(ja.find("\"tool\": \"decepticon-lint\""), std::string::npos);
    // The canonical findings document carries no run telemetry; the
    // gauges form adds the obs-style lint.* keys on top.
    EXPECT_EQ(ja.find("gauges"), std::string::npos);
    const std::string jg = lint::renderJson(a, /*withGauges=*/true);
    EXPECT_NE(jg.find("\"lint.files_scanned\": 17"), std::string::npos);
    EXPECT_NE(jg.find("\"lint.duration_micros\":"), std::string::npos);
    std::size_t srcALines = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             fixtures() + "/bad_repo/src/a")) {
        std::ifstream in(entry.path());
        for (std::string line; std::getline(in, line);)
            ++srcALines;
    }
    EXPECT_NE(jg.find("\"lint.lines.src/a\": " + std::to_string(srcALines) +
                      ","),
              std::string::npos)
        << jg;
    // No timestamps / absolute paths may leak into the report.
    EXPECT_EQ(ja.find(fixtures()), std::string::npos);
}

TEST(Lint, CrossTuRulesConsumeJustifiedSuppressions)
{
    // R2 and R9 fire from the cross-TU passes, after every per-file
    // rule ran; a justified suppression they consume must land in
    // `suppressed` and must not be reported as stale.
    namespace fs = std::filesystem;
    const std::string root = testing::TempDir() + "lint_cross_supp_repo";
    fs::remove_all(root);
    fs::create_directories(root + "/src/a");
    fs::create_directories(root + "/src/b");
    fs::copy_file(fixtures() + "/bad_repo/src/b/top.hh",
                  root + "/src/b/top.hh");
    {
        std::ofstream up(root + "/src/a/upward.cc");
        up << "#include \"b/top.hh\" // lint: suppress(R2) legacy "
              "upward edge kept on purpose\n"
              "int reachUp() { return fixture_b::topValue(); }\n";
        std::ofstream abba(root + "/src/a/abba.cc");
        abba << "// lint-file: suppress(R9) both paths run under one "
                "outer gate\n"
                "#include <mutex>\n"
                "std::mutex lockP;\n"
                "std::mutex lockQ;\n"
                "void forward()\n{\n"
                "    std::lock_guard<std::mutex> p(lockP);\n"
                "    std::lock_guard<std::mutex> q(lockQ);\n}\n"
                "void backward()\n{\n"
                "    std::lock_guard<std::mutex> q(lockQ);\n"
                "    std::lock_guard<std::mutex> p(lockP);\n}\n";
    }

    const lint::Report r = lint::runLint(root, fixtureConfig());
    fs::remove_all(root);
    EXPECT_EQ(r.filesScanned, 3u);
    EXPECT_TRUE(r.violations.empty()) << lint::renderText(r);
    ASSERT_EQ(r.suppressed.size(), 2u);
    EXPECT_EQ(r.suppressed[0].file, "src/a/abba.cc");
    EXPECT_EQ(r.suppressed[0].rule, "R9");
    EXPECT_EQ(r.suppressed[0].justification,
              "both paths run under one outer gate");
    EXPECT_EQ(r.suppressed[1].file, "src/a/upward.cc");
    EXPECT_EQ(r.suppressed[1].rule, "R2");
    EXPECT_EQ(r.suppressed[1].line, 1);
    EXPECT_EQ(r.suppressed[1].justification,
              "legacy upward edge kept on purpose");
}

TEST(Lint, ReachFlagsOnlySymbolsNoCallerUses)
{
    // R11 over reach_repo: callers are src/, bench/, examples/ and the
    // read-only tools/obsview/ and campaignbench/; tests/ is none.
    lint::Config cfg;
    std::string err;
    ASSERT_TRUE(lint::loadConfig(fixtures() + "/reach.toml", cfg, &err))
        << err;
    const lint::Report r = lint::runLint(fixtures() + "/reach_repo", cfg);

    // The read-only roots are not scanned: no R1 for the raw clock
    // read in campaignbench/, and they are not counted.
    EXPECT_EQ(r.filesScanned, 6u);
    std::vector<std::string> flagged;
    for (const lint::Violation &v : r.violations)
        if (v.rule == "R11")
            flagged.push_back(v.message.substr(0, v.message.find(' ')));
    // Test-only symbols are flagged; reach from bench/, examples/,
    // campaignbench/ or tools/obsview/, a use inside the symbol's own
    // .cc (helper) and a name shared with a reached symbol (shared)
    // all keep a symbol.
    EXPECT_EQ(flagged,
              (std::vector<std::string>{"`testOnly`", "`TestOnlyType`"}))
        << lint::renderText(r);

    // A justified suppression is honoured; the one on a reached symbol
    // is stale (R5), and those are the only other findings.
    ASSERT_EQ(r.suppressed.size(), 1u);
    EXPECT_EQ(r.suppressed[0].rule, "R11");
    EXPECT_EQ(r.suppressed[0].message.rfind("`reference`", 0), 0u);
    EXPECT_EQ(r.suppressed[0].justification,
              "the reference implementation tests compare to");
    EXPECT_EQ(countRuleInFile(r, "R5", "src/a/lib.hh"), 1);
    EXPECT_EQ(r.violations.size(), 3u) << lint::renderText(r);

    // The report is byte-identical across runs.
    EXPECT_EQ(lint::renderJson(r),
              lint::renderJson(
                  lint::runLint(fixtures() + "/reach_repo", cfg)));
}

TEST(Lint, RepoConfigParsesAndDeclaresEveryModule)
{
    lint::Config cfg;
    std::string err;
    ASSERT_TRUE(lint::loadConfig(
        std::string(LINT_REPO_ROOT) + "/tools/lint/layers.toml", cfg, &err))
        << err;
    // The partial order the tree is checked against: spot-check the
    // extremes and one middle edge.
    ASSERT_TRUE(cfg.layerOf.count("util"));
    ASSERT_TRUE(cfg.layerOf.count("core"));
    ASSERT_TRUE(cfg.layerOf.count("sched"));
    EXPECT_LT(cfg.layerOf.at("util"), cfg.layerOf.at("sched"));
    EXPECT_LT(cfg.layerOf.at("sched"), cfg.layerOf.at("core"));
    // The v2 rule scopes are wired in.
    EXPECT_FALSE(cfg.dataflowPaths.empty());
    EXPECT_FALSE(cfg.r9Paths.empty());
    EXPECT_FALSE(cfg.reachCallers.empty());
}

TEST(Lint, MalformedConfigIsRejected)
{
    const std::string path =
        testing::TempDir() + "lint_bad_config.toml";
    {
        std::ofstream out(path);
        out << "[no_such_section]\nfoo\n";
    }
    lint::Config cfg;
    std::string err;
    EXPECT_FALSE(lint::loadConfig(path, cfg, &err));
    EXPECT_NE(err.find("unknown section"), std::string::npos);
    std::remove(path.c_str());
}
