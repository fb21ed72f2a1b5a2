/**
 * @file
 * Config loader for decepticon-lint. The config is a tiny TOML
 * subset — `[section]` headers, `key = value` pairs, bare-value list
 * entries, `#` comments — so the tool stays dependency-free and the
 * file stays hand-editable in review (every new allowlist entry is a
 * one-line diff).
 */

#include "lint.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>

namespace decepticon::lint {

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
hasPrefix(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
underAny(const std::string &path, const std::vector<std::string> &dirs)
{
    for (const std::string &d : dirs)
        if (hasPrefix(path, d + "/") || path == d)
            return true;
    return false;
}

bool
loadConfig(const std::string &path, Config &out, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open config: " + path;
        return false;
    }
    out = Config{};
    std::string section;
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[' && line.back() == ']') {
            section = trim(line.substr(1, line.size() - 2));
            continue;
        }
        const std::size_t eq = line.find('=');
        const std::string key = trim(eq == std::string::npos
                                         ? line
                                         : line.substr(0, eq));
        const std::string value =
            eq == std::string::npos ? "" : trim(line.substr(eq + 1));

        if (section == "layers") {
            if (eq == std::string::npos) {
                if (error)
                    *error = path + ":" + std::to_string(lineNo) +
                             ": [layers] entries need `module = rank`";
                return false;
            }
            out.layerOf[key] = std::atoi(value.c_str());
        } else if (section == "r2.allow_edges") {
            // "from -> to"
            const std::size_t arrow = key.find("->");
            if (arrow == std::string::npos) {
                if (error)
                    *error = path + ":" + std::to_string(lineNo) +
                             ": [r2.allow_edges] entries are `from -> to`";
                return false;
            }
            out.allowEdges.emplace(trim(key.substr(0, arrow)),
                                   trim(key.substr(arrow + 2)));
        } else if (section == "r1.allow_files") {
            out.r1AllowFiles.insert(key);
        } else if (section == "r3.paths") {
            out.r3Paths.push_back(key);
        } else if (section == "r4.allow_dirs") {
            out.r4AllowDirs.push_back(key);
        } else if (section == "r5.env_allow_files") {
            out.r5EnvAllowFiles.insert(key);
        } else if (section == "r6.paths") {
            out.r6Paths.push_back(key);
        } else if (section == "r6.allow_dirs") {
            out.r6AllowDirs.push_back(key);
        } else if (section == "dataflow.paths") {
            out.dataflowPaths.push_back(key);
        } else if (section == "r9.paths") {
            out.r9Paths.push_back(key);
        } else if (section == "reach.callers") {
            out.reachCallers.push_back(key);
        } else if (section == "scan.roots") {
            out.scanRoots.push_back(key);
        } else {
            if (error)
                *error = path + ":" + std::to_string(lineNo) +
                         ": unknown section [" + section + "]";
            return false;
        }
    }
    if (out.scanRoots.empty())
        out.scanRoots = {"src", "tests", "bench", "examples"};
    return true;
}

} // namespace decepticon::lint
