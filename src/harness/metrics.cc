#include "harness/metrics.hh"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace tproc::harness
{

JsonValue
buildMetricsDoc(uint64_t interval,
                const std::vector<SweepResult> &results,
                const std::vector<PhaseStat> &phases)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("schema", JsonValue::makeString(metricsSchemaV1));
    doc.set("interval",
            JsonValue::makeNumber(static_cast<double>(interval)));

    // Points sort by grid index so the array is byte-stable no matter
    // which worker produced each result.
    std::vector<const SweepResult *> ordered;
    ordered.reserve(results.size());
    for (const auto &r : results) {
        if (r.ok && r.series.enabled())
            ordered.push_back(&r);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const SweepResult *a, const SweepResult *b) {
                  return a->point.index < b->point.index;
              });

    JsonValue points = JsonValue::makeArray();
    for (const SweepResult *r : ordered) {
        JsonValue p = JsonValue::makeObject();
        p.set("index", JsonValue::makeNumber(
                           static_cast<double>(r->point.index)));
        p.set("label", JsonValue::makeString(r->point.label()));
        p.set("workload", JsonValue::makeString(r->point.workload));
        p.set("model",
              JsonValue::makeString(r->point.useConfig ? "<config>"
                                                       : r->point.model));
        p.set("seed", JsonValue::makeNumber(
                          static_cast<double>(r->point.seed)));
        p.set("series", r->series.toJson());
        points.push(std::move(p));
    }
    doc.set("points", std::move(points));

    JsonValue phasesJson = JsonValue::makeArray();
    for (const auto &ph : phases) {
        JsonValue p = JsonValue::makeObject();
        p.set("name", JsonValue::makeString(ph.name));
        p.set("seconds", JsonValue::makeNumber(ph.seconds));
        p.set("count", JsonValue::makeNumber(
                           static_cast<double>(ph.count)));
        phasesJson.push(std::move(p));
    }
    doc.set("phases", std::move(phasesJson));
    return doc;
}

std::string
checkMetricsDoc(const JsonValue &doc)
{
    try {
        if (!doc.isObject())
            return "document is not a JSON object";
        if (doc.stringOr("schema", "") != metricsSchemaV1) {
            return "schema is '" + doc.stringOr("schema", "") +
                   "', want '" + metricsSchemaV1 + "'";
        }
        const double interval = doc.at("interval").asNumber();
        if (interval < 1.0)
            return "interval must be >= 1";

        const auto &want = Processor::metricsChannels();
        for (const auto &p : doc.at("points").asArray()) {
            const std::string label = p.stringOr("label", "<unlabeled>");
            p.at("index").asNumber();
            p.at("workload").asString();
            p.at("model").asString();
            p.at("seed").asNumber();
            const JsonValue &s = p.at("series");
            if (s.at("interval").asNumber() != interval) {
                return "point " + label +
                       ": series interval disagrees with the document "
                       "interval";
            }
            const auto &chans = s.at("channels").asArray();
            if (chans.size() != want.size())
                return "point " + label + ": wrong channel count";
            for (size_t i = 0; i < chans.size(); ++i) {
                if (chans[i].asString() != want[i]) {
                    return "point " + label + ": channel " +
                           std::to_string(i) + " is '" +
                           chans[i].asString() + "', want '" + want[i] +
                           "'";
                }
            }
            const auto &rows = s.at("samples").asArray();
            for (const auto &row : rows) {
                if (row.asArray().size() != want.size() + 1) {
                    return "point " + label +
                           ": sample row width != channels + 1";
                }
            }
            if (s.at("recorded").asNumber() <
                static_cast<double>(rows.size())) {
                return "point " + label +
                       ": recorded < retained sample count";
            }
        }

        for (const auto &ph : doc.at("phases").asArray()) {
            ph.at("name").asString();
            if (ph.at("seconds").asNumber() < 0.0)
                return "phase " + ph.at("name").asString() +
                       ": negative seconds";
            if (ph.at("count").asNumber() < 1.0)
                return "phase " + ph.at("name").asString() +
                       ": count must be >= 1";
        }
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

void
writeMetricsFile(const std::string &path, const JsonValue &doc)
{
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("metrics: cannot open '" + path +
                                 "' for writing");
    }
    writeJson(out, doc);
    out << '\n';
    if (!out.flush()) {
        throw std::runtime_error("metrics: failed writing '" + path +
                                 "'");
    }
}

} // namespace tproc::harness
