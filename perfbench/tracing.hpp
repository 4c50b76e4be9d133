// In-memory span recorder and small helpers for the benchmark harness.
//
// Spans are recorded from the harness's own code around its calls into the
// library (never inside it): name, start, end, the enclosing span, the round
// that caused it, and a track (0 = the driving thread, 1..jobs = concurrent
// Monte-Carlo sample slots). They stay in memory and are written out as a
// Chrome trace when the run ends. A disabled recorder makes every operation
// a pointer test, so untraced rounds pay nothing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class SpanRecorder {
 public:
  struct Span {
    const char* name;
    int parent;
    int round;
    uint32_t track;
    int64_t startNs;
    int64_t endNs;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its id (-1 when disabled).
  int begin(const char* name, int parent, int round, uint32_t track) {
    if (!enabled_) return -1;
    const int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, parent, round, track, now, -1});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int id) {
    if (id < 0) return;
    const int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].endNs = now;
  }

  /// Per span name, the summed duration (s) of that name in each round
  /// [0, rounds). Only closed spans count.
  std::map<std::string, std::vector<double>> perRoundSums(int rounds) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::vector<double>> out;
    for (const Span& s : spans_) {
      if (s.endNs < 0 || s.round < 0 || s.round >= rounds) continue;
      auto& v = out[s.name];
      v.resize(static_cast<size_t>(rounds), 0.0);
      v[static_cast<size_t>(s.round)] += 1e-9 * static_cast<double>(s.endNs - s.startNs);
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, one tid per track).
  void writeChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.endNs < 0) continue;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"round\":%d}}",
                   first ? "" : ",\n", s.name, s.track, 1e-3 * s.startNs,
                   1e-3 * (s.endNs - s.startNs), i, s.parent, s.round);
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

 private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null or disabled recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int parent, int round,
             uint32_t track = 0)
      : rec_(rec),
        id_(rec != nullptr ? rec->begin(name, parent, round, track) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Hands out slot indices [0, n) to concurrently running callbacks, so each
/// running callback owns one telemetry slot and one trace track.
class SlotPool {
 public:
  explicit SlotPool(size_t n) {
    for (size_t i = n; i > 0; --i) free_.push_back(i - 1);
  }
  size_t acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) throw std::runtime_error("more callbacks than slots");
    const size_t s = free_.back();
    free_.pop_back();
    return s;
  }
  void release(size_t s) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(s);
  }

 private:
  std::mutex mutex_;
  std::vector<size_t> free_;
};

/// Minimal JSON object writer for the harness's one-line report.
class JsonOut {
 public:
  JsonOut& key(const std::string& k) {
    comma();
    s_ += '"' + k + "\":";
    fresh_ = true;
    return *this;
  }
  JsonOut& num(double v) {
    comma();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s_ += buf;
    return *this;
  }
  JsonOut& integer(uint64_t v) {
    comma();
    s_ += std::to_string(v);
    return *this;
  }
  JsonOut& boolean(bool v) {
    comma();
    s_ += v ? "true" : "false";
    return *this;
  }
  JsonOut& str(const std::string& v) {
    comma();
    s_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      s_ += (c == '\n' ? ' ' : c);
    }
    s_ += '"';
    return *this;
  }
  JsonOut& nums(const std::vector<double>& v) {
    open('[');
    for (double x : v) num(x);
    return close(']');
  }
  JsonOut& open(char c) {
    comma();
    s_ += c;
    fresh_ = true;
    return *this;
  }
  JsonOut& close(char c) {
    s_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return s_; }

 private:
  void comma() {
    if (!fresh_ && !s_.empty()) s_ += ',';
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

}  // namespace perfbench
