#include "analysis/sarif.hh"

#include <sstream>

#include "common/json_escape.hh"

namespace uvmasync
{

namespace
{

const char *
sarifLevel(Severity s)
{
    switch (s) {
      case Severity::Note:
        return "note";
      case Severity::Warn:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "none";
}

} // namespace

std::string
renderSarif(const DiagnosticEngine &diags)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
    os << "  \"version\": \"2.1.0\",\n";
    os << "  \"runs\": [\n";
    os << "    {\n";
    os << "      \"tool\": {\n";
    os << "        \"driver\": {\n";
    os << "          \"name\": \"uvmasync-lint\",\n";
    os << "          \"rules\": [\n";
    const auto &specs = allDiagSpecs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const DiagSpec &spec = specs[i];
        os << "            {\n";
        os << "              \"id\": \"" << spec.code << "\",\n";
        os << "              \"shortDescription\": { \"text\": \""
           << jsonEscape(spec.title) << "\" },\n";
        os << "              \"help\": { \"text\": \""
           << jsonEscape(spec.hint) << "\" },\n";
        os << "              \"defaultConfiguration\": { \"level\": \""
           << sarifLevel(spec.severity) << "\" }\n";
        os << "            }" << (i + 1 < specs.size() ? "," : "")
           << "\n";
    }
    os << "          ]\n";
    os << "        }\n";
    os << "      },\n";
    os << "      \"results\": [\n";
    const auto &all = diags.all();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Diagnostic &d = all[i];
        const std::string &fix =
            d.hint.empty() ? diagSpec(d.id).hint : d.hint;
        std::string text = d.subject.empty()
                               ? d.message
                               : d.subject + ": " + d.message;
        text += " (fix: " + fix + ")";
        os << "        {\n";
        os << "          \"ruleId\": \"" << d.code() << "\",\n";
        os << "          \"ruleIndex\": "
           << static_cast<std::size_t>(d.id) << ",\n";
        os << "          \"level\": \"" << sarifLevel(d.severity)
           << "\",\n";
        os << "          \"message\": { \"text\": \""
           << jsonEscape(text) << "\" }";
        if (d.loc.valid()) {
            os << ",\n";
            os << "          \"locations\": [\n";
            os << "            {\n";
            os << "              \"physicalLocation\": {\n";
            os << "                \"artifactLocation\": { \"uri\": \""
               << jsonEscape(d.loc.file) << "\" }";
            if (d.loc.line > 0) {
                os << ",\n";
                os << "                \"region\": { \"startLine\": "
                   << d.loc.line << " }\n";
            } else {
                os << "\n";
            }
            os << "              }\n";
            os << "            }\n";
            os << "          ]\n";
        } else {
            os << "\n";
        }
        os << "        }" << (i + 1 < all.size() ? "," : "") << "\n";
    }
    os << "      ]\n";
    os << "    }\n";
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

} // namespace uvmasync
