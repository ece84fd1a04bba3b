# Warning and sanitizer hygiene, collected on one interface target so every
# binary in the tree (library, tests, benches, examples) inherits the same
# flags without repeating lists.
add_library(rumor_build_flags INTERFACE)

if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  target_compile_options(rumor_build_flags INTERFACE
    -Wall -Wextra -Wpedantic -Wshadow -Wconversion -Wsign-conversion)
  # The determinism contract demands the same floating-point operation
  # sequence on every build: GCC's default (-ffp-contract=fast) may fuse a
  # mul+add into an FMA wherever the target ISA has one, which rounds once
  # instead of twice and silently changes bits between -march levels. The
  # lane-blocked kernels (support/simd.h) rely on every build running the
  # identical IEEE sequence, however the compiler vectorizes it, so
  # contraction is off everywhere.
  target_compile_options(rumor_build_flags INTERFACE -ffp-contract=off)
  if(RUMOR_WERROR)
    target_compile_options(rumor_build_flags INTERFACE -Werror)
  endif()
endif()

# Optional sanitizers: -DSANITIZE=address,undefined or -DSANITIZE=thread.
# The value is validated here because the combinations matter: ASan and TSan
# own incompatible shadow-memory layouts, so requesting both is a
# configuration error the compiler reports too late (at link, or at run
# time), and a typo ("threads") must not silently build an unsanitized
# binary that CI then trusts as a race-clean run.
set(SANITIZE "" CACHE STRING
  "Comma-separated sanitizers: any of address,undefined,leak or thread (exclusive)")
if(SANITIZE)
  string(REPLACE "," ";" _san_list "${SANITIZE}")
  set(_san_known address undefined leak thread)
  foreach(_san IN LISTS _san_list)
    if(NOT _san IN_LIST _san_known)
      message(FATAL_ERROR "SANITIZE: unknown sanitizer '${_san}' "
        "(known: address, undefined, leak, thread)")
    endif()
  endforeach()
  if("thread" IN_LIST _san_list AND (("address" IN_LIST _san_list) OR ("leak" IN_LIST _san_list)))
    message(FATAL_ERROR "SANITIZE: thread cannot combine with address/leak "
      "(incompatible shadow memory); build separate trees")
  endif()
  foreach(_san IN LISTS _san_list)
    target_compile_options(rumor_build_flags INTERFACE -fsanitize=${_san} -fno-omit-frame-pointer)
    target_link_options(rumor_build_flags INTERFACE -fsanitize=${_san})
  endforeach()
endif()

# Stamp the sanitizer configuration into the binaries: `rumor_cli hwinfo`
# reports it, and scripts/run_bench.sh refuses to record BENCH snapshots from
# a sanitized build — sanitizer runtimes distort wall clock by 5-20x, so one
# unlabelled TSan measurement would poison every downstream trend comparison.
if(SANITIZE)
  set(RUMOR_SANITIZER_STRING "${SANITIZE}")
else()
  set(RUMOR_SANITIZER_STRING "none")
endif()
target_compile_definitions(rumor_build_flags INTERFACE
  RUMOR_SANITIZER=\"${RUMOR_SANITIZER_STRING}\")
