/**
 * @file
 * Diagnostics for the static model linter (`uvmasync-lint`).
 *
 * Every check the analysis passes can raise has a stable code
 * (UAL001, UAL002, ...), a default severity and a generic fix-it
 * hint, so tools and CI gates can match on codes instead of message
 * text. A Diagnostic instance carries the concrete message, the
 * subject (workload/kernel/buffer), and — when the model came from a
 * KV file — the source location of the offending key.
 */

#ifndef UVMASYNC_ANALYSIS_DIAGNOSTIC_HH
#define UVMASYNC_ANALYSIS_DIAGNOSTIC_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace uvmasync
{

/** How bad a finding is. */
enum class Severity
{
    Note,  //!< informational; never fails a run
    Warn,  //!< suspicious model, results may mislead
    Error, //!< semantically invalid model; refuse to simulate
};

/** Lower-case severity name ("note", "warn", "error"). */
const char *severityName(Severity s);

/** Stable diagnostic identities. Append only — codes are public. */
enum class DiagId
{
    DanglingBufferRef,     //!< UAL001
    KernelDepCycle,        //!< UAL002
    DanglingKernelDep,     //!< UAL003
    UnusedBuffer,          //!< UAL004
    ReadUninitialized,     //!< UAL005
    SharedOverflow,        //!< UAL006
    BadLaunchGeometry,     //!< UAL007
    FootprintOverCapacity, //!< UAL008
    BadPageGeometry,       //!< UAL009
    PrefetchMismatch,      //!< UAL010
    BadInstructionMix,     //!< UAL011
    BadTouchedFraction,    //!< UAL012
    UnknownConfigKey,      //!< UAL013
    ShadowedConfigKey,     //!< UAL014
    BadSystemParam,        //!< UAL015
    BadInjectParam,        //!< UAL016
    InertInjectPlan,       //!< UAL017
    EventVolumeOverCeiling, //!< UAL018
    PredictedThrash,        //!< UAL019
    DominatedModeSelection, //!< UAL020
    DeadBufferWrite,        //!< UAL021
    ChunkGeometryWaste,     //!< UAL022
    PrefetchReuseMismatch,  //!< UAL023
    PredictedEventVolume,   //!< UAL024
};

inline constexpr std::size_t diagIdCount = 24;

/** Static description of one diagnostic code. */
struct DiagSpec
{
    DiagId id;
    const char *code;     //!< "UAL001"
    Severity severity;    //!< default severity
    const char *title;    //!< one-line summary for --list-codes
    const char *hint;     //!< generic fix-it advice
};

/** Spec lookup; valid for every DiagId. */
const DiagSpec &diagSpec(DiagId id);

/** All specs in code order (for --list-codes and the docs). */
const std::array<DiagSpec, diagIdCount> &allDiagSpecs();

/** Parse "UAL007" back to an id; returns false if unknown. */
bool parseDiagCode(const std::string &code, DiagId &out);

/** Location of the offending line in a KV/config file. */
struct SourceLoc
{
    std::string file; //!< empty when the model was built in C++
    int line = 0;     //!< 1-based; 0 when unknown

    bool valid() const { return !file.empty(); }
    std::string toString() const;
};

/** One concrete finding. */
struct Diagnostic
{
    DiagId id = DiagId::DanglingBufferRef;
    Severity severity = Severity::Error;
    std::string subject; //!< "workload/kernel" or config scope
    std::string message; //!< the specific problem
    std::string hint;    //!< specific fix-it; falls back to spec hint
    SourceLoc loc;

    const char *code() const { return diagSpec(id).code; }

    /** "error[UAL001] subject: message (fix: hint)" + location. */
    std::string format() const;
};

/**
 * Collects diagnostics from analysis passes and answers the only
 * question CI cares about: is the model clean enough to run?
 */
class DiagnosticEngine
{
  public:
    /** Report with the code's default severity. */
    Diagnostic &report(DiagId id, std::string subject,
                       std::string message);

    /** Report with an explicit severity override. */
    Diagnostic &report(DiagId id, Severity severity,
                       std::string subject, std::string message);

    const std::vector<Diagnostic> &all() const { return diags_; }
    std::vector<Diagnostic> &all() { return diags_; }
    bool empty() const { return diags_.empty(); }

    std::size_t count(Severity s) const;
    std::size_t count(DiagId id) const;
    bool hasErrors() const { return count(Severity::Error) > 0; }

    /** All findings, one formatted line each, severity-sorted. */
    std::string formatAll() const;

    /** "3 errors, 1 warning, 0 notes". */
    std::string summary() const;

    /** Merge another engine's findings into this one. */
    void merge(const DiagnosticEngine &other);

  private:
    std::vector<Diagnostic> diags_;
};

} // namespace uvmasync

#endif // UVMASYNC_ANALYSIS_DIAGNOSTIC_HH
