// Clocks, process counters, order statistics and the span recorder.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double seconds_between(Clock::time_point start, Clock::time_point end) {
    return std::chrono::duration<double>(end - start).count();
}

double process_cpu_s() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto to_s = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int available_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::int64_t Tracer::ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

int Tracer::open(const char* name, int parent) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.start_ns = ns(Clock::now());
    span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = static_cast<int>(spans_.size());
    spans_.push_back(span);
    return span.id;
}

void Tracer::close(int id) {
    const std::int64_t end = ns(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end_ns = end;
}

void Tracer::record(const char* name, int parent, Clock::time_point start,
                    Clock::time_point end) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.start_ns = ns(start);
    span.end_ns = ns(end);
    span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = static_cast<int>(spans_.size());
    spans_.push_back(span);
}

std::vector<double> Tracer::durations(const char* name, int parent) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& span : spans_) {
        if (span.parent == parent && std::string(span.name) == name) {
            out.push_back(span.seconds());
        }
    }
    return out;
}

void Tracer::write_jsonl(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) throw std::runtime_error("cannot write " + path);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& span : spans_) {
        std::fprintf(file,
                     "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                     "\"start_ns\": %lld, \"end_ns\": %lld, \"thread\": "
                     "\"%zx\"}\n",
                     span.id, span.parent, span.name,
                     static_cast<long long>(span.start_ns),
                     static_cast<long long>(span.end_ns), span.thread);
    }
    std::fclose(file);
}

}  // namespace perfbench
