package main

import (
	"context"
	"math/rand"
	"time"

	"cryptomining/pkg/apiv1"
	"cryptomining/pkg/client"
)

// readKind is one GET of the read mix.
type readKind int

const (
	readCampaigns readKind = iota
	readCampaign
	readTimeline
	readTimeseries
	readStats
	numReadKinds
)

var readKindNames = [numReadKinds]string{"campaigns", "campaign", "timeline", "timeseries", "stats"}

// readSlot is one request of the dashboard cycle.
type readSlot int

const (
	slotPoll       readSlot = iota // first listing page, revalidating its own last ETag
	slotNextPage                   // the next listing page, by cursor
	slotStats                      // /api/v1/stats
	slotTimeseries                 // /api/v1/timeseries, revalidating its own last ETag
	slotDetail                     // one campaign's detail
	slotTimeline                   // the timeline of the campaign last opened
)

// dashboardCycle is the GET mix, ten requests repeated in order. It is the
// polling dashboard of cmd/loadgen, the repository's one documented read
// pattern: per eight requests, six conditional polls of the first listing
// page that revalidate the ETag of their own last response, one stats poll
// and one unconditional campaign detail. Three changes, assumptions rather
// than observed traffic, make it cover the whole read tier:
//   - each detail is followed by that campaign's timeline (a dashboard that
//     opens a campaign draws its chart);
//   - each stats poll is followed by a conditional /api/v1/timeseries poll
//     (the ecosystem chart beside the counters);
//   - one listing slot in six pages on by cursor instead of re-polling.
//
// Shares: listings 60% (one in six of them a cursor page), stats,
// timeseries, detail and timeline 10% each; 60% of all GETs are
// conditional.
var dashboardCycle = []readSlot{
	slotPoll, slotPoll, slotPoll, slotPoll, slotNextPage,
	slotStats, slotTimeseries, slotPoll, slotDetail, slotTimeline,
}

const (
	campaignPageSize = 20
	requestTimeout   = 10 * time.Second
)

// tsQuery is the timeseries and timeline query of the mix.
var tsQuery = client.TimeseriesQuery{Resolution: "1m"}

// readMix issues the dashboard cycle on one SDK client. Request i is slot
// i mod len(dashboardCycle); the seed picks which campaigns are opened,
// from those the listing has shown so far, so no request asks for a
// campaign that cannot exist.
type readMix struct {
	cl  *client.Client
	rng *rand.Rand
	tr  *tracer

	// pollETag and tsETag are the validators of the last first-page and
	// timeseries responses: each conditional request revalidates the
	// resource it fetched before.
	pollETag, tsETag string
	// firstCursor is the first page's next_cursor; cursor is where the next
	// cursor page starts ("" after the last page).
	firstCursor, cursor string
	total               int
	opened              int

	// per-kind counts of attempts and failures (non-2xx/304, transport and
	// decode errors).
	attempted, failed [numReadKinds]int
	notModified       int
}

func newReadMix(cl *client.Client, seed int64, tr *tracer) *readMix {
	return &readMix{cl: cl, rng: rand.New(rand.NewSource(seed)), tr: tr}
}

// campaignID picks a campaign from the lower half of the last listing's
// total: IDs are positional, and merges only ever remove the highest ones.
func (m *readMix) campaignID() int {
	return 1 + m.rng.Intn(max(1, m.total/2))
}

// kind maps a slot to the route it reads, falling back to a first-page poll
// until the listing has shown a campaign or a cursor.
func (m *readMix) kind(s readSlot) (readKind, readSlot) {
	switch {
	case (s == slotDetail || s == slotTimeline) && m.total == 0,
		s == slotTimeline && m.opened == 0,
		s == slotNextPage && m.cursor == "" && m.firstCursor == "":
		return readCampaigns, slotPoll
	case s == slotPoll || s == slotNextPage:
		return readCampaigns, s
	case s == slotStats:
		return readStats, s
	case s == slotTimeseries:
		return readTimeseries, s
	case s == slotDetail:
		return readCampaign, s
	}
	return readTimeline, s
}

// do performs request i.
func (m *readMix) do(i int) error {
	k, slot := m.kind(dashboardCycle[i%len(dashboardCycle)])
	m.attempted[k]++
	_, end := m.tr.begin("http.GET "+readKindNames[k], 0)
	defer end()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var err error
	var nm bool
	switch slot {
	case slotPoll:
		var p apiv1.CampaignPage
		var etag string
		p, etag, nm, err = m.cl.CampaignsConditional(ctx, client.CampaignQuery{Limit: campaignPageSize}, m.pollETag)
		if err == nil && !nm {
			m.pollETag, m.firstCursor, m.total = etag, p.NextCursor, p.Total
		}
	case slotNextPage:
		if m.cursor == "" {
			m.cursor = m.firstCursor
		}
		var p apiv1.CampaignPage
		p, err = m.cl.Campaigns(ctx, client.CampaignQuery{Limit: campaignPageSize, Cursor: m.cursor})
		if err == nil {
			m.cursor, m.total = p.NextCursor, p.Total
		}
	case slotStats:
		_, err = m.cl.Stats(ctx)
	case slotTimeseries:
		var etag string
		_, etag, nm, err = m.cl.TimeseriesConditional(ctx, tsQuery, m.tsETag)
		if err == nil && !nm {
			m.tsETag = etag
		}
	case slotDetail:
		m.opened = m.campaignID()
		_, err = m.cl.Campaign(ctx, m.opened)
	case slotTimeline:
		_, err = m.cl.CampaignTimeline(ctx, m.opened, tsQuery)
	}
	if err != nil {
		m.failed[k]++
		return err
	}
	if nm {
		m.notModified++
	}
	return nil
}

func (m *readMix) totals() (attempted, failed int) {
	for k := range m.attempted {
		attempted += m.attempted[k]
		failed += m.failed[k]
	}
	return attempted, failed
}
