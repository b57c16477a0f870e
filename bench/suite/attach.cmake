# Attaches bench/suite to the repository's root project. Configure the root
# with -DCMAKE_PROJECT_cumulon_INCLUDE=<this file>: CMake includes it right
# after the root's project(cumulon) call, and it schedules an include of
# this directory's CMakeLists.txt for the end of the root CMakeLists.txt
# (CMake allows no add_subdirectory there). cumulon_bench is then defined in
# the root directory, after every compile flag, definition and cache option
# the root sets (CUMULON_VERIFY_FATAL, CUMULON_LOCK_ORDER_CHECKS,
# CUMULON_SANITIZE, ...), so it builds like the library it links with.
set(CUMULON_SUITE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${CUMULON_SUITE_DIR}/CMakeLists.txt")
