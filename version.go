package gsim

// Version identifies the library build. It is surfaced by the serving
// layer (gsim_build_info on /metrics, the "version" field of /v1/stats)
// and by the daemon's -version flag, so a latency regression can be
// attributed to the build that produced it.
const Version = "0.10.0"
