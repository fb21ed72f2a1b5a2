/**
 * @file
 * Figure 9 reproduction: the kernel census of BERT-large releases from
 * different sources — total kernel executions, unique kernels, and a
 * sample of kernel names per source. Expected shape: TensorFlow
 * releases run up to ~8x more kernel executions and expose tens of
 * times more unique kernels than PyTorch releases; only a handful of
 * kernels are shared across sources.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <set>

#include "bench/workloads.hh"
#include "gpusim/trace_generator.hh"
#include "util/table.hh"

using namespace decepticon;

int
main()
{
    struct Source
    {
        const char *label;
        gpusim::SoftwareSignature sig;
    };
    std::vector<Source> sources;
    {
        gpusim::SoftwareSignature hf;
        hf.kernelDialect = 11;
        sources.push_back({"huggingface pytorch squad", hf});

        gpusim::SoftwareSignature meta;
        meta.developer = gpusim::Developer::Meta;
        meta.kernelDialect = 12;
        sources.push_back({"meta (roberta) pytorch mnli", meta});

        gpusim::SoftwareSignature nvp;
        nvp.developer = gpusim::Developer::Nvidia;
        nvp.useTensorCores = true;
        nvp.kernelDialect = 13;
        sources.push_back({"nvidia pytorch squad", nvp});

        gpusim::SoftwareSignature nvt;
        nvt.framework = gpusim::Framework::TensorFlow;
        nvt.developer = gpusim::Developer::Nvidia;
        nvt.useTensorCores = true;
        nvt.useXla = true;
        nvt.kernelDialect = 14;
        sources.push_back({"nvidia tensorflow squad", nvt});
    }

    const auto arch = bench::bertLargeArch();
    util::Table census({"source", "kernel executions", "unique kernels"});
    std::vector<std::set<std::string>> names_per_source;
    std::size_t pt_execs = 0, tf_execs = 0, pt_unique = 1, tf_unique = 0;
    for (const auto &src : sources) {
        const gpusim::TraceGenerator gen(src.sig);
        const auto trace = gen.generate(arch, 1);
        census.row()
            .cell(src.label)
            .cell(trace.records.size())
            .cell(trace.uniqueKernelCount());

        std::set<std::string> names;
        std::map<std::string, std::size_t> counts;
        for (const auto &r : trace.records) {
            const std::string name((*trace.kernelNames)[r.kernelId]);
            names.insert(name);
            ++counts[name];
        }
        names_per_source.push_back(names);

        // Top kernels by invocation count, like the paper's listing.
        std::vector<std::pair<std::size_t, std::string>> top;
        for (const auto &[name, count] : counts)
            top.emplace_back(count, name);
        std::sort(top.rbegin(), top.rend());
        std::cout << "\n" << src.label << " — top kernels:\n";
        for (std::size_t i = 0; i < std::min<std::size_t>(8, top.size());
             ++i) {
            std::cout << "    " << top[i].second << " (x" << top[i].first
                      << ")\n";
        }

        if (std::string(src.label).find("tensorflow") !=
            std::string::npos) {
            tf_execs = trace.records.size();
            tf_unique = trace.uniqueKernelCount();
        } else if (std::string(src.label) ==
                   "huggingface pytorch squad") {
            pt_execs = trace.records.size();
            pt_unique = trace.uniqueKernelCount();
        }
    }

    util::printBanner(std::cout, "Fig. 9: kernel census per source");
    census.printAscii(std::cout);

    // Cross-source kernel overlap (paper: only a handful shared).
    std::set<std::string> shared = names_per_source[0];
    for (std::size_t i = 1; i < names_per_source.size(); ++i) {
        std::set<std::string> next;
        std::set_intersection(shared.begin(), shared.end(),
                              names_per_source[i].begin(),
                              names_per_source[i].end(),
                              std::inserter(next, next.begin()));
        shared = next;
    }
    std::cout << "\nkernels common to all four sources: " << shared.size()
              << "\nTF/PyTorch execution ratio: "
              << static_cast<double>(tf_execs) /
                     static_cast<double>(pt_execs)
              << "  (paper: up to ~8x)"
              << "\nTF/PyTorch unique-kernel ratio: "
              << static_cast<double>(tf_unique) /
                     static_cast<double>(pt_unique)
              << "  (paper: up to ~40x)\n";

    const double exec_ratio = static_cast<double>(tf_execs) /
                              static_cast<double>(pt_execs);
    return exec_ratio > 3.0 && shared.size() < 6 ? 0 : 1;
}
