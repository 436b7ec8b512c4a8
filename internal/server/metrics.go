package server

import "sync/atomic"

// counters are the server's cumulative (expvar-style) counters. Gauges
// like queue depth and jobs-by-state are derived live in the /metrics
// handler instead of being tracked here, so they can never drift from
// the structures they describe.
type counters struct {
	submitted        atomic.Int64 // admitted jobs (cache hits included)
	completed        atomic.Int64 // jobs finished done
	failed           atomic.Int64 // jobs finished failed
	canceled         atomic.Int64 // jobs finished canceled
	cacheServed      atomic.Int64 // submissions answered from the result cache
	joined           atomic.Int64 // submissions attached to an identical in-flight job
	rejectedRate     atomic.Int64 // 429: client over its token bucket
	rejectedQueue    atomic.Int64 // 429: queue at capacity
	rejectedDraining atomic.Int64 // 503: submitted during drain
	simEvents        atomic.Int64 // transition firings across all completed jobs
	cellsDone        atomic.Int64 // sweep cells completed across all jobs
	evicted          atomic.Int64 // finished jobs the store forgot to stay within its limits
}

// metricsView is the JSON shape of GET /metrics.
type metricsView struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Draining      bool    `json:"draining"`

	Queue struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`

	Jobs struct {
		Queued    int   `json:"queued"`
		Running   int   `json:"running"`
		Done      int   `json:"done"`
		Failed    int   `json:"failed"`
		Canceled  int   `json:"canceled"`
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
		Joined    int64 `json:"joined"`
		Evicted   int64 `json:"evicted"`
	} `json:"jobs"`

	Cache struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hitRate"`
		Entries int     `json:"entries"`
		Bytes   int64   `json:"bytes"`
		Served  int64   `json:"served"`
	} `json:"cache"`

	Rejected struct {
		RateLimit int64 `json:"rateLimit"`
		QueueFull int64 `json:"queueFull"`
		Draining  int64 `json:"draining"`
	} `json:"rejected"`

	Sim struct {
		Events       int64   `json:"events"`
		EventsPerSec float64 `json:"eventsPerSec"`
		Cells        int64   `json:"cells"`
	} `json:"sim"`
}
