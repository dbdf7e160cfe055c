#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace bsis::obs {

namespace {

namespace fs = std::filesystem;

// --- meta.json sidecar -------------------------------------------------

/// Calls `visit(key, field)` for every sidecar field in document order:
/// the one list both the writer and the reader follow.
template <typename Meta, typename Visit>
void visit_meta(Meta& meta, Visit&& visit)
{
    visit("failure", meta.failure);
    visit("solver", meta.solver);
    visit("precond", meta.precond);
    visit("stop", meta.stop);
    visit("tolerance", meta.tolerance);
    visit("max_iterations", meta.max_iterations);
    visit("gmres_restart", meta.gmres_restart);
    visit("block_jacobi_size", meta.block_jacobi_size);
    visit("richardson_omega", meta.richardson_omega);
    visit("used_initial_guess", meta.used_initial_guess);
    visit("fused_kernels", meta.fused_kernels);
    visit("pipelined", meta.pipelined);
    visit("lockstep_width", meta.lockstep_width);
    visit("system_index", meta.system_index);
    visit("iterations", meta.iterations);
    visit("residual_norm", meta.residual_norm);
    visit("history_iterations", meta.history_iterations);
    visit("history_residuals", meta.history_residuals);
}

void write_value(std::ostream& os, const std::string& v) { json_quote(os, v); }
void write_value(std::ostream& os, real_type v) { json_number(os, v); }
void write_value(std::ostream& os, int v) { os << v; }
void write_value(std::ostream& os, std::int64_t v) { os << v; }
void write_value(std::ostream& os, bool v) { os << (v ? "true" : "false"); }

template <typename T>
void write_value(std::ostream& os, const std::vector<T>& values)
{
    os << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        os << (i == 0 ? "" : ", ");
        write_value(os, values[i]);
    }
    os << ']';
}

void write_meta(std::ostream& os, const FailureBundleMeta& meta)
{
    os.precision(17);  // doubles round-trip exactly
    const char* separator = "{\n  ";
    visit_meta(meta, [&](const char* key, const auto& value) {
        os << separator << '"' << key << "\": ";
        write_value(os, value);
        separator = ",\n  ";
    });
    os << "\n}\n";
}

bool read_value(const JsonValue& v, std::string& out)
{
    out = v.string;
    return v.kind == JsonValue::Kind::string;
}

bool read_value(const JsonValue& v, real_type& out)
{
    return json_real(v, out);
}

bool read_value(const JsonValue& v, int& out)
{
    return json_integer(v, out);
}

bool read_value(const JsonValue& v, std::int64_t& out)
{
    return json_integer(v, out);
}

bool read_value(const JsonValue& v, bool& out)
{
    out = v.boolean;
    return v.kind == JsonValue::Kind::boolean;
}

template <typename T>
bool read_value(const JsonValue& v, std::vector<T>& out)
{
    if (v.kind != JsonValue::Kind::array) {
        return false;
    }
    out.assign(v.array.size(), T{});
    for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (!read_value(v.array[i], out[i])) {
            return false;
        }
    }
    return true;
}

FailureBundleMeta parse_meta(const std::string& text)
{
    JsonValue root;
    if (!parse_json(text, root) || root.kind != JsonValue::Kind::object) {
        throw ParseError("flight_recorder", "meta.json is not a JSON object");
    }
    FailureBundleMeta meta;
    for (const auto& [key, value] : root.object) {
        bool known = false;
        visit_meta(meta, [&](const char* name, auto& slot) {
            if (key != name) {
                return;
            }
            known = true;
            if (!read_value(value, slot)) {
                throw ParseError("flight_recorder",
                                 "meta.json: bad value for '" + key + "'");
            }
        });
        if (!known) {
            throw ParseError("flight_recorder",
                             "meta.json: unknown key '" + key + "'");
        }
    }
    return meta;
}

std::string slurp(const fs::path& path)
{
    std::ifstream is(path);
    if (!is) {
        throw ParseError("flight_recorder",
                         "cannot open " + path.string());
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

}  // namespace

FlightRecorder::FlightRecorder(std::string directory, int budget)
    : directory_(std::move(directory)), budget_(budget)
{
    BSIS_ENSURE_ARG(budget_ >= 0, "negative flight recorder budget");
}

std::int64_t FlightRecorder::seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_;
}

int FlightRecorder::captured() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return captured_;
}

bool FlightRecorder::capture(const io::Coo& a, ConstVecView<real_type> b,
                             ConstVecView<real_type> x0,
                             const FailureBundleMeta& meta)
{
    int seq = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++seen_;
        if (captured_ >= budget_) {
            return false;
        }
        seq = captured_++;
    }
    // Filesystem writes happen outside the lock: bundles have distinct
    // sequence numbers, so concurrent captures never collide. The sequence
    // is zero-padded so the lexical sort in list_bundles is capture order.
    std::ostringstream name;
    name << std::setw(4) << std::setfill('0') << seq << "_sys"
         << meta.system_index;
    const fs::path dir = fs::path(directory_) / name.str();
    fs::create_directories(dir);
    {
        std::ofstream os(dir / "A.mtx");
        io::write_matrix(os, a);
    }
    {
        std::ofstream os(dir / "b.mtx");
        io::write_vector(os, b);
    }
    {
        std::ofstream os(dir / "x0.mtx");
        io::write_vector(os, x0);
    }
    {
        std::ofstream os(dir / "meta.json");
        write_meta(os, meta);
    }
    if (events_enabled()) {
        events().emit("failure.capture",
                      {field("bundle", dir.string()),
                       field("failure", meta.failure),
                       field("solver", meta.solver),
                       field("system_index", meta.system_index),
                       field("iterations", meta.iterations),
                       field("residual_norm",
                             static_cast<double>(meta.residual_norm))});
    }
    return true;
}

FailureBundle load_bundle(const std::string& bundle_dir)
{
    const fs::path dir(bundle_dir);
    FailureBundle bundle;
    std::istringstream a(slurp(dir / "A.mtx"));
    bundle.a = io::read_matrix(a);
    std::istringstream b(slurp(dir / "b.mtx"));
    bundle.b = io::read_vector(b);
    std::istringstream x0(slurp(dir / "x0.mtx"));
    bundle.x0 = io::read_vector(x0);
    bundle.meta = parse_meta(slurp(dir / "meta.json"));
    return bundle;
}

std::vector<std::string> list_bundles(const std::string& capture_dir)
{
    std::vector<std::string> out;
    const fs::path dir(capture_dir);
    if (!fs::exists(dir)) {
        return out;
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.is_directory() &&
            fs::exists(entry.path() / "meta.json")) {
            out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace bsis::obs
