// Move-only callable with inline storage for simulator events.
//
// Every capture on the replay's request path fits in the Task itself, so
// scheduling those events allocates nothing. libstdc++'s std::function
// only inlines captures up to two words, which made nearly every scheduled
// event a heap allocation; profiling the replay engine put that churn at
// the top of the hot loop. Captures larger than kInlineBytes fall back to
// a single heap cell, exactly as std::function would; on the replay path
// that is only rare ones, such as a partitioned send's retry.
//
// The size is affordable because a Task is moved only twice: into the
// simulator's slab when scheduled and out of it when run. The event heap
// orders small records that name the slot (sim/simulator.h).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace webcc::sim {

class Task {
 public:
  // The largest hot-path capture: the server reply hop of
  // Engine::ReplyToClient (this, the reply, its addressing and the two
  // piggyback vectors). With ops_ after the storage a Task is 144 bytes.
  static constexpr std::size_t kInlineBytes = 136;

  Task() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (FitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  Task(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  Task(Task&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs dst from src, then destroys src (heap mode: steals the
    // pointer). noexcept so slab growth never throws mid-move.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr bool FitsInline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* self) { (*static_cast<Fn*>(self))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* self) { static_cast<Fn*>(self)->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static void Invoke(void* self) { (**static_cast<Fn**>(self))(); }
    static void Relocate(void* dst, void* src) {
      *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
    }
    static void Destroy(void* self) { delete *static_cast<Fn**>(self); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace webcc::sim
