/**
 * @file
 * Static model linter CLI: check system configs, job files and the
 * built-in workload registry without simulating anything.
 *
 *   uvmasync-lint --all-workloads [--size CLASS|all]
 *       Lint every registry workload (CI gate; milliseconds).
 *
 *   uvmasync-lint --workload NAME [--size CLASS|all]
 *   uvmasync-lint --jobfile FILE
 *   uvmasync-lint --config FILE
 *       Lint one model.
 *
 *   uvmasync-lint --analyze ...
 *       Additionally render the report the cost-advisor pass priced
 *       for every linted job: per-mode predicted traffic/time table
 *       plus the advisor verdict (which transfer mode should win,
 *       before simulating). A --pass list must then include
 *       cost-advisor.
 *
 *   uvmasync-lint --inject FILE
 *       Lint a fault-injection plan (inject.* keys): malformed
 *       parameters (UAL016), unknown/shadowed keys (UAL013/014) and
 *       plans that cannot perturb anything (UAL017).
 *
 *   uvmasync-lint --list-codes / --list-passes
 *       Document the UAL diagnostic codes / analysis passes.
 *
 * Common flags: --config FILE (system overlay for job lints),
 * --Werror (warnings fail the run), --pass NAME (restrict passes,
 * repeatable via comma list), --quiet (findings only, no summary),
 * --format text|sarif (finding output format; text is the default),
 * --jobs N (parallel workload analysis; output order and bytes are
 * identical at any N).
 *
 * Exit status: 0 clean (notes/warnings allowed unless --Werror),
 * 1 error-severity findings, 2 usage/IO error.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cost_model.hh"
#include "analysis/lint.hh"
#include "analysis/sarif.hh"
#include "common/parse_number.hh"
#include "common/table.hh"
#include "runtime/config_loader.hh"
#include "workloads/job_loader.hh"
#include "workloads/registry.hh"

using namespace uvmasync;

namespace
{

struct Options
{
    bool allWorkloads = false;
    std::string workload;
    std::string jobfile;
    std::string configFile;
    std::string injectFile;
    bool configOnly = false;
    std::string size = "super";
    bool listCodes = false;
    bool listPasses = false;
    bool werror = false;
    bool quiet = false;
    bool analyze = false;
    bool sarif = false;
    unsigned jobs = 1;
    LintOptions lint;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        auto setFormat = [&](const std::string &fmt) {
            if (fmt == "sarif")
                opt.sarif = true;
            else if (fmt == "text")
                opt.sarif = false;
            else {
                std::fprintf(stderr, "unknown format '%s'\n",
                             fmt.c_str());
                std::exit(2);
            }
        };
        if (arg == "--all-workloads")
            opt.allWorkloads = true;
        else if (arg == "--workload")
            opt.workload = value("--workload");
        else if (arg == "--jobfile")
            opt.jobfile = value("--jobfile");
        else if (arg == "--config")
            opt.configFile = value("--config");
        else if (arg == "--inject")
            opt.injectFile = value("--inject");
        else if (arg == "--size")
            opt.size = value("--size");
        else if (arg == "--list-codes")
            opt.listCodes = true;
        else if (arg == "--list-passes")
            opt.listPasses = true;
        else if (arg == "--Werror")
            opt.werror = true;
        else if (arg == "--quiet")
            opt.quiet = true;
        else if (arg == "--analyze")
            opt.analyze = true;
        else if (arg == "--format")
            setFormat(value("--format"));
        else if (arg.rfind("--format=", 0) == 0)
            setFormat(arg.substr(std::strlen("--format=")));
        else if (arg == "--jobs") {
            std::string text = value("--jobs");
            std::uint64_t jobs = 0;
            if (!parseUnsigned(text, jobs,
                               std::numeric_limits<unsigned>::max()) ||
                jobs == 0) {
                std::fprintf(stderr, "--jobs needs a positive integer, "
                                     "got '%s'\n",
                             text.c_str());
                return false;
            }
            opt.jobs = static_cast<unsigned>(jobs);
        }
        else if (arg == "--pass") {
            std::istringstream iss(value("--pass"));
            std::string name;
            while (std::getline(iss, name, ','))
                opt.lint.passes.push_back(name);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            return false;
        }
    }
    // --analyze renders the report the cost-advisor pass prices.
    if (opt.analyze && !opt.lint.passes.empty() &&
        std::find(opt.lint.passes.begin(), opt.lint.passes.end(),
                  "cost-advisor") == opt.lint.passes.end()) {
        std::fprintf(stderr, "--analyze needs the cost-advisor pass; "
                             "add it to --pass\n");
        return false;
    }
    opt.lint.warningsAsErrors = opt.werror;
    opt.configOnly = !opt.configFile.empty() && !opt.allWorkloads &&
                     opt.workload.empty() && opt.jobfile.empty();
    return true;
}

int
listCodes()
{
    TextTable table({"code", "severity", "title"});
    table.setAlign(1, TextTable::Align::Left);
    table.setAlign(2, TextTable::Align::Left);
    for (const DiagSpec &spec : allDiagSpecs())
        table.addRow({spec.code, severityName(spec.severity),
                      spec.title});
    table.print(std::cout);
    return 0;
}

int
listPasses()
{
    TextTable table({"pass", "checks"});
    table.setAlign(1, TextTable::Align::Left);
    // Named to outlive the loop: the range expression's temporary
    // would be destroyed before the body runs (dangling passes()).
    PassManager pipeline = PassManager::standardPipeline();
    for (const auto &pass : pipeline.passes())
        table.addRow({pass->name(), pass->description()});
    table.print(std::cout);
    return 0;
}

/** One linted (and optionally cost-analyzed) model. */
struct UnitResult
{
    DiagnosticEngine diags;
    std::string analysis; //!< rendered cost table (--analyze)
};

UnitResult
lintUnit(const SystemConfig &system, const Job &job,
         const std::string &subject, const KvConfig *systemKv,
         const KvConfig *jobKv, const Options &opt)
{
    UnitResult r;
    std::optional<CostReport> report;
    r.diags = lintJob(system, job, subject, systemKv, jobKv, opt.lint,
                      nullptr, opt.analyze ? &report : nullptr);
    if (report && !r.diags.hasErrors())
        r.analysis = renderCostReport(*report, subject);
    return r;
}

/**
 * Print one unit's findings (or stash them for the SARIF document)
 * and its cost table; returns the number of error findings.
 */
std::size_t
emit(const UnitResult &r, const Options &opt,
     DiagnosticEngine &sarifAcc)
{
    if (opt.sarif) {
        sarifAcc.merge(r.diags);
    } else {
        if (!r.diags.empty())
            std::cout << r.diags.formatAll();
        if (!opt.quiet && !r.diags.empty())
            std::cout << r.diags.summary() << "\n";
    }
    if (!r.analysis.empty())
        std::cout << r.analysis;
    return r.diags.count(Severity::Error);
}

std::size_t
emit(const DiagnosticEngine &diags, const Options &opt,
     DiagnosticEngine &sarifAcc)
{
    UnitResult r;
    r.diags = diags;
    return emit(r, opt, sarifAcc);
}

std::vector<SizeClass>
sizesFor(const Options &opt)
{
    if (opt.size == "all")
        return {allSizeClasses.begin(), allSizeClasses.end()};
    SizeClass s;
    if (!parseSizeClass(opt.size, s)) {
        std::fprintf(stderr, "unknown size class '%s'\n",
                     opt.size.c_str());
        std::exit(2);
    }
    return {s};
}

/**
 * Lint (and analyze) a batch of workload x size points. Points are
 * processed by --jobs worker threads but emitted strictly in task
 * order, so the output bytes do not depend on the thread count.
 */
std::size_t
lintWorkloadBatch(const std::vector<std::string> &names,
                  const SystemConfig &system,
                  const KvConfig *systemKv, const Options &opt,
                  DiagnosticEngine &sarifAcc)
{
    struct Task
    {
        std::string name;
        SizeClass size;
    };
    std::vector<Task> tasks;
    for (const std::string &name : names) {
        if (!WorkloadRegistry::instance().find(name)) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         name.c_str());
            std::exit(2);
        }
        for (SizeClass size : sizesFor(opt))
            tasks.push_back({name, size});
    }

    std::vector<UnitResult> results(tasks.size());
    unsigned workers = std::max(1u, opt.jobs);
    workers = static_cast<unsigned>(
        std::min<std::size_t>(workers, tasks.size() ? tasks.size()
                                                    : 1));
    std::atomic<std::size_t> next{0};
    auto work = [&]() {
        for (std::size_t i = next.fetch_add(1); i < tasks.size();
             i = next.fetch_add(1)) {
            const Workload *w =
                WorkloadRegistry::instance().find(tasks[i].name);
            Job job = w->makeJob(tasks[i].size);
            std::string subject =
                tasks[i].name + " @ " +
                std::string(sizeClassName(tasks[i].size));
            results[i] = lintUnit(system, job, subject, systemKv,
                                  nullptr, opt);
        }
    };
    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < workers; ++t)
            pool.emplace_back(work);
        for (std::thread &t : pool)
            t.join();
    }

    std::size_t errors = 0;
    for (const UnitResult &r : results)
        errors += emit(r, opt, sarifAcc);
    return errors;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;
    if (opt.listCodes)
        return listCodes();
    if (opt.listPasses)
        return listPasses();
    if (!opt.allWorkloads && opt.workload.empty() &&
        opt.jobfile.empty() && opt.configFile.empty() &&
        opt.injectFile.empty()) {
        std::fprintf(
            stderr,
            "usage: uvmasync-lint --all-workloads | --workload NAME "
            "| --jobfile FILE | --config FILE | --inject FILE\n"
            "                     [--size CLASS|all] [--config FILE] "
            "[--pass NAME[,NAME]] [--Werror] [--quiet]\n"
            "                     [--analyze] [--format text|sarif] "
            "[--jobs N] [--list-codes] [--list-passes]\n");
        return 2;
    }

    registerAllWorkloads();

    KvConfig systemKv;
    SystemConfig system = SystemConfig::a100Epyc();
    const KvConfig *systemKvPtr = nullptr;
    if (!opt.configFile.empty()) {
        systemKv = KvConfig::fromFile(opt.configFile);
        // Overlay leniently: unknown keys surface as UAL013 from the
        // lint pipeline instead of applyConfig()'s fatal.
        DiagnosticEngine scratch;
        checkKvKeys(systemKv, knownSystemConfigKeys(),
                    "system config", scratch);
        if (!scratch.hasErrors())
            system = applyConfig(system, systemKv);
        systemKvPtr = &systemKv;
    }

    std::size_t errors = 0;
    DiagnosticEngine sarifAcc;

    if (opt.configOnly) {
        errors += emit(lintSystemConfig(system, systemKvPtr, opt.lint),
                       opt, sarifAcc);
    }

    if (!opt.injectFile.empty()) {
        KvConfig injectKv = KvConfig::fromFile(opt.injectFile);
        errors += emit(lintInjectPlan(injectKv, opt.lint), opt,
                       sarifAcc);
    }

    if (!opt.jobfile.empty()) {
        KvConfig jobKv = KvConfig::fromFile(opt.jobfile);
        DiagnosticEngine loadDiags;
        Job job = jobFromConfig(jobKv, &loadDiags);
        errors += emit(lintUnit(system, job, opt.jobfile, systemKvPtr,
                                &jobKv, opt),
                       opt, sarifAcc);
    }

    std::vector<std::string> names;
    if (!opt.workload.empty())
        names.push_back(opt.workload);
    if (opt.allWorkloads)
        for (const std::string &name :
             WorkloadRegistry::instance().names())
            names.push_back(name);
    if (!names.empty()) {
        errors += lintWorkloadBatch(names, system, systemKvPtr, opt,
                                    sarifAcc);
        if (opt.allWorkloads && !opt.quiet && !opt.sarif) {
            std::cout << "linted " << names.size()
                      << " workload(s) x " << sizesFor(opt).size()
                      << " size(s): "
                      << (errors == 0 ? "clean"
                                      : std::to_string(errors) +
                                            " error(s)")
                      << "\n";
        }
    }

    if (opt.sarif)
        std::cout << renderSarif(sarifAcc);

    return errors == 0 ? 0 : 1;
}
