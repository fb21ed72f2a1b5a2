/**
 * @file
 * CLI driver for decepticon-lint.
 *
 *   decepticon-lint --root <repo> [--config <layers.toml>]
 *                   [--json <out.json>] [--no-gauges] [--quiet]
 *
 * Prints `file:line: [rule] message` per unsuppressed violation and
 * exits with the violation count (clamped to 125 so it never
 * collides with shell/signal exit codes). `--json` additionally
 * writes the machine-readable report; the findings document is
 * byte-identical across runs, and a `gauges` object carries run
 * telemetry (files scanned, wall micros, lines per module) unless
 * `--no-gauges` asks for the canonical form (baseline
 * regeneration).
 */

#include "lint.hh"

#include <fstream>
#include <iostream>

int
main(int argc, char **argv)
{
    using namespace decepticon::lint;

    std::string root = ".";
    std::string configPath;
    std::string jsonPath;
    bool quiet = false;
    bool gauges = true;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "decepticon-lint: " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            root = next("--root");
        } else if (arg == "--config") {
            configPath = next("--config");
        } else if (arg == "--json") {
            jsonPath = next("--json");
        } else if (arg == "--no-gauges") {
            gauges = false;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: decepticon-lint --root <repo> "
                         "[--config <layers.toml>] [--json <out>] "
                         "[--no-gauges] [--quiet]\n";
            return 0;
        } else {
            std::cerr << "decepticon-lint: unknown argument '" << arg
                      << "'\n";
            return 2;
        }
    }
    if (configPath.empty())
        configPath = root + "/tools/lint/layers.toml";

    Config cfg;
    std::string err;
    if (!loadConfig(configPath, cfg, &err)) {
        std::cerr << "decepticon-lint: " << err << "\n";
        return 2;
    }

    const Report report = runLint(root, cfg);

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath, std::ios::binary);
        if (!out) {
            std::cerr << "decepticon-lint: cannot write " << jsonPath
                      << "\n";
            return 2;
        }
        out << renderJson(report, gauges);
    }
    if (!quiet)
        std::cout << renderText(report);

    const std::size_t n = report.violations.size();
    return static_cast<int>(n > 125 ? 125 : n);
}
