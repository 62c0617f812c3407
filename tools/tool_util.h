/**
 * @file
 * Strict flag parser and top-level exception handler shared by the
 * command-line tools.
 */

#ifndef EDDIE_TOOLS_TOOL_UTIL_H
#define EDDIE_TOOLS_TOOL_UTIL_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace eddie::tools
{

/** A command-line mistake (unknown flag, missing or malformed
 *  value): runTool prints it and exits 2. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Runs a tool's body, turning any escaped exception — a corrupt model
 * file, an unknown workload, a failed write — into a one-line stderr
 * message and exit code 1 instead of std::terminate (a UsageError
 * exits 2). Bodies return their own exit codes (0 ok, 2 usage, 3
 * anomalies reported).
 */
template <typename Body>
int
runTool(const char *tool, Body &&body)
{
    try {
        return body();
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    } catch (...) {
        std::fprintf(stderr, "%s: error: unknown exception\n", tool);
    }
    return 1;
}

/** What a declared flag takes. */
enum class FlagKind
{
    Switch, ///< present or absent; takes no value
    Text,   ///< one value that does not start with "--"
    Int,    ///< one whole number in [min, max]
    Real,   ///< one finite number in [min, max]
};

/** One flag a tool accepts (spelled without the leading "--"). */
struct Flag
{
    std::string name;
    FlagKind kind = FlagKind::Switch;
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
};

/** Flags several tools read, declared once so that their ranges
 *  agree from tool to tool. */
inline const Flag kScaleFlag{"scale", FlagKind::Real, 1e-3, 1e3};
inline const Flag kSeedFlag{"seed", FlagKind::Int, 0};
inline const Flag kSnrFlag{"snr", FlagKind::Real, -100, 200};
inline const Flag kThreadsFlag{"threads", FlagKind::Int, 0, 256};
inline const Flag kPayloadFlag{"payload", FlagKind::Int, 0, 1e12};
inline const Flag kContaminationFlag{"contamination", FlagKind::Real,
                                     0, 1};
inline const Flag kTargetFlag{"target", FlagKind::Int, 0, 1e6};

/**
 * Positional arguments plus the declared --flag / --key value
 * options. Parsing is strict: an undeclared flag, a missing value, a
 * value that is not a number where one is expected, or a number
 * outside the flag's range throws UsageError. A value may be
 * negative ("--snr -5"). Any argument not starting with "--" that no
 * flag consumed is positional. A repeated flag keeps its last value.
 */
class Args
{
  public:
    Args(int argc, char **argv, std::vector<Flag> flags)
        : flags_(std::move(flags))
    {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a.size() <= 2 || a.rfind("--", 0) != 0) {
                positional_.push_back(a);
                continue;
            }
            const std::string key = a.substr(2);
            const Flag *flag = find(key);
            if (flag == nullptr)
                throw UsageError("unknown flag " + a);
            if (flag->kind == FlagKind::Switch) {
                options_[key].clear();
                continue;
            }
            if (i + 1 >= argc ||
                std::string(argv[i + 1]).rfind("--", 0) == 0)
                throw UsageError("flag " + a + " needs a value");
            const std::string value = argv[++i];
            if (flag->kind == FlagKind::Int)
                (void)whole(*flag, value);
            else if (flag->kind == FlagKind::Real)
                (void)real(*flag, value);
            options_[key] = value;
        }
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    bool
    has(const std::string &key) const
    {
        declared(key);
        return options_.count(key) != 0;
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        declared(key);
        const auto it = options_.find(key);
        return it == options_.end() ? fallback : it->second;
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        const Flag &flag = declared(key);
        if (flag.kind != FlagKind::Real)
            throw std::logic_error("flag --" + key + " is not real");
        const auto it = options_.find(key);
        return it == options_.end() ? fallback : real(flag, it->second);
    }

    long
    getLong(const std::string &key, long fallback) const
    {
        const Flag &flag = declared(key);
        if (flag.kind != FlagKind::Int)
            throw std::logic_error("flag --" + key + " is not whole");
        const auto it = options_.find(key);
        return it == options_.end() ? fallback : whole(flag, it->second);
    }

  private:
    const Flag *
    find(const std::string &key) const
    {
        for (const Flag &flag : flags_)
            if (flag.name == key)
                return &flag;
        return nullptr;
    }

    /** A tool reading a flag it never declared is a bug in the tool,
     *  not a usage error. */
    const Flag &
    declared(const std::string &key) const
    {
        const Flag *flag = find(key);
        if (flag == nullptr)
            throw std::logic_error("undeclared flag --" + key);
        return *flag;
    }

    /** Parses an Int flag's value; throws UsageError unless it is a
     *  whole number inside the flag's range. */
    static long
    whole(const Flag &flag, const std::string &value)
    {
        checkStart(flag, value);
        char *end = nullptr;
        errno = 0;
        const long n = std::strtol(value.c_str(), &end, 10);
        if (*end != '\0')
            throw UsageError(quote(flag, value) +
                             " is not a whole number");
        if (errno == ERANGE || double(n) < flag.min ||
            double(n) > flag.max)
            throw UsageError(quote(flag, value) + outside(flag));
        return n;
    }

    /** Parses a Real flag's value; throws UsageError unless it is a
     *  finite number inside the flag's range. */
    static double
    real(const Flag &flag, const std::string &value)
    {
        checkStart(flag, value);
        char *end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (*end != '\0' || !std::isfinite(v))
            throw UsageError(quote(flag, value) + " is not a number");
        if (v < flag.min || v > flag.max)
            throw UsageError(quote(flag, value) + outside(flag));
        return v;
    }

    /** strtol/strtod skip leading blanks; a value must not. */
    static void
    checkStart(const Flag &flag, const std::string &value)
    {
        if (value.empty() ||
            std::isspace(static_cast<unsigned char>(value[0])))
            throw UsageError(quote(flag, value) + " is not a number");
    }

    static std::string
    quote(const Flag &flag, const std::string &value)
    {
        return "flag --" + flag.name + ": '" + value + "'";
    }

    static std::string
    outside(const Flag &flag)
    {
        char range[64];
        std::snprintf(range, sizeof range, " is outside [%g, %g]",
                      flag.min, flag.max);
        return range;
    }

    std::vector<Flag> flags_;
    std::vector<std::string> positional_;
    std::map<std::string, std::string> options_;
};

} // namespace eddie::tools

#endif // EDDIE_TOOLS_TOOL_UTIL_H
