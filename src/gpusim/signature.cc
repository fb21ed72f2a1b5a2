#include "gpusim/signature.hh"

#include "util/rng.hh"

namespace decepticon::gpusim {

std::string
toString(Framework f)
{
    switch (f) {
      case Framework::PyTorch:
        return "pytorch";
      case Framework::TensorFlow:
        return "tensorflow";
      case Framework::Mxnet:
        return "mxnet";
    }
    return "unknown";
}

std::string
toString(Developer d)
{
    switch (d) {
      case Developer::HuggingFace:
        return "huggingface";
      case Developer::Nvidia:
        return "nvidia";
      case Developer::Google:
        return "google";
      case Developer::Meta:
        return "meta";
      case Developer::Amazon:
        return "amazon";
      case Developer::Community:
        return "community";
    }
    return "unknown";
}

std::uint64_t
SoftwareSignature::seed() const
{
    std::uint64_t h = util::hashString(toString().c_str());
    return h ^ 0xdece7e1c0ffee123ULL;
}

std::string
SoftwareSignature::toString() const
{
    std::string out = gpusim::toString(framework);
    out += '/';
    out += gpusim::toString(developer);
    out += useTensorCores ? "/tc1" : "/tc0";
    out += useXla ? "/xla1" : "/xla0";
    out += "/f";
    out += std::to_string(fusionLevel);
    out += "/d";
    out += std::to_string(kernelDialect);
    return out;
}

} // namespace decepticon::gpusim
