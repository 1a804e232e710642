// The --jobs spec grammar (see parseJobSpecs in cluster/job.hpp). Kept
// apart from job.cpp so binaries that build JobSpecs directly do not
// link the model zoo's name lookup.

#include <climits>
#include <cstdlib>

#include "cluster/job.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "models/model_zoo.hpp"

namespace themis::cluster {

std::vector<JobSpec>
parseJobSpecs(const std::string& arg, int default_iterations)
{
    std::vector<JobSpec> specs;
    for (const std::string& tok : split(arg, ';')) {
        const std::size_t entry = specs.size() + 1;
        const std::vector<std::string> fields = split(tok, ',');
        const std::string& head = fields.front();
        const std::size_t colon = head.find(':');
        if (colon == std::string::npos)
            THEMIS_FATAL("job entry " << entry << " ('" << head
                                      << "'): expected train:MODEL or "
                                         "infer:SIZE");
        const std::string kind = toLower(head.substr(0, colon));
        const bool infer = kind == "infer";
        // Values must be whole numbers ("1e6x" is an error, not 1e6);
        // counts must also fit an int.
        auto bad = [&](const std::string& what, const std::string& v) {
            THEMIS_FATAL("job entry " << entry << ": bad " << what << " '" << v
                                      << "'");
        };
        auto number = [&](const std::string& what, const std::string& v) {
            char* end = nullptr;
            const double x = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0')
                bad(what, v);
            return x;
        };
        auto count = [&](const std::string& what, const std::string& v) {
            char* end = nullptr;
            const long n = std::strtol(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || n < 0 || n > INT_MAX)
                bad(what, v);
            return static_cast<int>(n);
        };
        JobSpec spec;
        bool has_period = false;
        if (kind == "train")
            spec = JobSpec::training(
                models::byName(head.substr(colon + 1)), default_iterations);
        else if (infer) // the required period= field sets the period
            spec = JobSpec::periodicInference(
                number("request size", head.substr(colon + 1)), 0.0);
        else
            THEMIS_FATAL("job entry " << entry << ": unknown job kind '"
                                      << kind << "' (train or infer)");
        for (std::size_t f = 1; f < fields.size(); ++f) {
            const std::size_t eq = fields[f].find('=');
            if (eq == std::string::npos)
                THEMIS_FATAL("job entry " << entry << ": field '"
                                          << fields[f]
                                          << "' is not key=value");
            const std::string key = toLower(fields[f].substr(0, eq));
            const std::string val = fields[f].substr(eq + 1);
            if (key == "arrival") {
                spec.arrival = number(key, val);
            } else if (key == "tier") {
                spec.priority_tier = -1;
                for (int t = 0; t < kNumPriorityTiers; ++t)
                    if (toLower(val) == priorityTierName(t) ||
                        val == std::to_string(t))
                        spec.priority_tier = t;
                if (spec.priority_tier < 0)
                    THEMIS_FATAL("job entry " << entry << ": bad tier '" << val
                                              << "' (bulk|standard|urgent)");
            } else if (key == "iterations" && !infer) {
                spec.iterations = count(key, val);
            } else if (key == "period" && infer) {
                spec.period = number(key, val);
                has_period = true;
            } else if (key == "deadline" && infer) {
                spec.deadline = number(key, val);
            } else if (key == "requests" && infer) {
                spec.max_requests = count(key, val);
            } else {
                THEMIS_FATAL("job entry " << entry << ": unknown key '"
                                          << key << "' for a " << kind
                                          << " job");
            }
        }
        if (infer && !has_period)
            THEMIS_FATAL("job entry " << entry << " ('" << head
                                      << "'): period= is required "
                                         "(infer:SIZE,period=NS[,k=v])");
        spec.validate();
        specs.push_back(std::move(spec));
    }
    return specs;
}

} // namespace themis::cluster
