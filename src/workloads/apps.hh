/**
 * @file
 * The evaluation's application models (paper Table IV), expressed as
 * multi-threaded synthetic access-pattern compositions and scaled from
 * GB-class footprints to tens-of-MB simulator footprints.
 *
 * Each model reproduces the *pattern class* the paper attributes to the
 * application: simple streams (K-means, QuickSort), ladder streams
 * (HPL, NPB-LU), ripple streams (NPB-MG), strided streams (NPB-FT),
 * gather-heavy irregularity (NPB-CG/IS, GraphX), and the JVM-segmented
 * short streams + GC scans of Spark applications (§VI-B).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workloads/generator.hh"

namespace hopp::workloads
{

/** A multi-threaded workload: one generator factory per thread. */
struct Workload
{
    std::string name;

    /** Total footprint over all threads, in pages. */
    std::uint64_t footprintPages = 0;

    /** JVM-managed (Spark/GraphX) grouping used by the benches. */
    bool jvm = false;

    /** Per-thread generator factories (fresh generator per call). */
    std::vector<std::function<GeneratorPtr()>> threads;
};

/** Uniform scaling knobs applied to every app model. */
struct WorkloadScale
{
    /** Multiplies region sizes (pages). */
    double footprint = 1.0;

    /** Multiplies pass/iteration counts. */
    double iterations = 1.0;
};

/**
 * Build a workload by name, one of knownWorkloadNames(). Fatal on
 * unknown names.
 */
Workload makeWorkload(const std::string &name,
                      const WorkloadScale &scale = {},
                      std::uint64_t seed = 42);

/** All application names (excluding the §VI-E microbench). */
std::vector<std::string> allWorkloadNames();

/**
 * Every name makeWorkload() accepts: the applications, then the
 * synthetic microbench and linkedlist. `hopp-run --list` prints this
 * list, and the CLIs check --workload against it.
 */
std::vector<std::string> knownWorkloadNames();

/** The non-JVM programs of Figures 9-11. */
std::vector<std::string> nonJvmWorkloadNames();

/** The Spark/GraphX programs of Figures 12-14. */
std::vector<std::string> sparkWorkloadNames();

} // namespace hopp::workloads

