#include "fingerprint/dataset.hh"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "fingerprint/boundary.hh"
#include "gpusim/trace_generator.hh"
#include "sched/sched.hh"
#include "trace/image.hh"
#include "util/rng.hh"

namespace decepticon::fingerprint {

std::pair<FingerprintDataset, FingerprintDataset>
FingerprintDataset::split(double train_fraction, std::uint64_t seed) const
{
    FingerprintDataset train, test;
    train.classNames = test.classNames = classNames;
    train.resolution = test.resolution = resolution;

    std::vector<std::size_t> order(samples.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    util::Rng rng(seed);
    rng.shuffle(order);

    const auto n_train = static_cast<std::size_t>(
        train_fraction * static_cast<double>(samples.size()));
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i < n_train)
            train.samples.push_back(samples[order[i]]);
        else
            test.samples.push_back(samples[order[i]]);
    }
    return {std::move(train), std::move(test)};
}

tensor::Tensor
fingerprintImage(const gpusim::KernelTrace &trace, std::size_t resolution,
                 bool crop_irregular)
{
    if (crop_irregular) {
        const gpusim::KernelTrace cropped = cropToEncoderRegion(trace);
        if (!cropped.records.empty())
            return trace::rasterize(cropped, resolution);
    }
    return trace::rasterize(trace, resolution);
}

tensor::Tensor
fingerprintImage(const zoo::ModelIdentity &model, std::size_t resolution,
                 std::uint64_t run_seed, bool crop_irregular)
{
    const gpusim::TraceGenerator gen(model.signature);
    const gpusim::KernelTrace trace = gen.generate(model.arch, run_seed);
    return fingerprintImage(trace, resolution, crop_irregular);
}

FingerprintDataset
buildDataset(const zoo::ModelZoo &zoo, const DatasetOptions &opts)
{
    FingerprintDataset ds;
    ds.resolution = opts.resolution;

    std::vector<std::string> lineages = zoo.lineageNames();
    if (opts.lineageLimit > 0 && opts.lineageLimit < lineages.size())
        lineages.resize(opts.lineageLimit);
    ds.classNames = lineages;

    std::unordered_map<std::string, int> label_of;
    for (std::size_t i = 0; i < lineages.size(); ++i)
        label_of[lineages[i]] = static_cast<int>(i);

    // Draw every run seed up front, in the exact order the serial loop
    // would: the per-image streams (and thus the dataset bytes) are
    // independent of how the rasterization work is scheduled below.
    struct Job
    {
        const zoo::ModelIdentity *model;
        int label;
        std::uint64_t runSeed;
    };
    std::vector<Job> jobs;
    util::Rng rng(opts.seed);
    for (const auto &model : zoo.models()) {
        auto it = label_of.find(model.pretrainedName);
        if (it == label_of.end())
            continue; // lineage outside the requested subset
        for (std::size_t k = 0; k < opts.imagesPerModel; ++k)
            jobs.push_back({&model, it->second, rng.nextU64()});
    }

    // Each model's runs are consecutive jobs: one task per model
    // builds its trace generator once and serves all of them.
    const std::size_t per_model = opts.imagesPerModel;
    ds.samples.resize(jobs.size());
    const std::size_t models = per_model == 0 ? 0 : jobs.size() / per_model;
    sched::parallelFor(models, 1, [&](std::size_t m) {
        const gpusim::TraceGenerator gen(jobs[m * per_model].model->signature);
        for (std::size_t i = m * per_model; i < (m + 1) * per_model; ++i) {
            const Job &job = jobs[i];
            FingerprintSample &sample = ds.samples[i];
            sample.label = job.label;
            sample.modelName = job.model->name;
            sample.image = fingerprintImage(
                gen.generate(job.model->arch, job.runSeed), opts.resolution,
                opts.cropIrregular);
        }
    });
    return ds;
}

} // namespace decepticon::fingerprint
