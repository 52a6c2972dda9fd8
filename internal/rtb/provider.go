package rtb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/adnet"
	"repro/internal/geo"
)

// SlotResult is one slot of a multi-slot auction.
type SlotResult struct {
	Slot          int
	Winner        Bid
	ClearingPrice float64
}

// RunMultiSlotAuction runs a generalized second-price (GSP) auction for
// up to `slots` ad slots: bids are collected once under the deadline,
// ranked by price, the top k bidders win slots in order, and the winner
// of slot i pays max(bid_{i+1}, reserve). Win notices fire per slot.
func (e *Exchange) RunMultiSlotAuction(ctx context.Context, req BidRequest, slots int) ([]SlotResult, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("rtb: slots %d must be positive", slots)
	}
	e.mu.RLock()
	bidders := make([]Bidder, len(e.bidders))
	copy(bidders, e.bidders)
	e.mu.RUnlock()

	e.statsMu.Lock()
	e.auctions++
	e.statsMu.Unlock()

	if len(bidders) == 0 {
		return nil, ErrNoBidders
	}

	start := time.Now()
	auctionCtx, cancel := context.WithTimeout(ctx, e.timeout)
	defer cancel()

	type answer struct {
		bid Bid
		ok  bool
	}
	answers := make(chan answer, len(bidders))
	for _, b := range bidders {
		go func(b Bidder) {
			bid, ok := b.Bid(auctionCtx, req)
			select {
			case answers <- answer{bid: bid, ok: ok}:
			case <-auctionCtx.Done():
			}
		}(b)
	}

	var bids []Bid
	received := 0
collect:
	for received < len(bidders) {
		select {
		case a := <-answers:
			received++
			if a.ok && a.bid.PriceCPM >= e.reserve {
				bids = append(bids, a.bid)
			}
		case <-auctionCtx.Done():
			break collect
		}
	}
	e.met.Load().observeAuction(start, len(bidders)-received, len(bids) > 0)

	if len(bids) == 0 {
		e.statsMu.Lock()
		e.noFills++
		e.statsMu.Unlock()
		return nil, fmt.Errorf("%w for request %s", ErrNoBids, req.ID)
	}

	sort.Slice(bids, func(a, b int) bool {
		if bids[a].PriceCPM != bids[b].PriceCPM {
			return bids[a].PriceCPM > bids[b].PriceCPM
		}
		return bids[a].BidderID < bids[b].BidderID
	})
	if slots > len(bids) {
		slots = len(bids)
	}
	results := make([]SlotResult, 0, slots)
	for i := 0; i < slots; i++ {
		clearing := e.reserve
		if i+1 < len(bids) && bids[i+1].PriceCPM > clearing {
			clearing = bids[i+1].PriceCPM
		}
		res := SlotResult{Slot: i + 1, Winner: bids[i], ClearingPrice: clearing}
		results = append(results, res)
		e.notifyWinner(bidders, &Result{
			Request:       req,
			Winner:        res.Winner,
			ClearingPrice: res.ClearingPrice,
			Participants:  len(bids),
		})
	}
	return results, nil
}

// Provider adapts an Exchange to the edge service's AdProvider contract:
// every ad request runs one GSP auction and returns the winning ads in
// slot order. Like adnet.Network, it keeps the bid-request log that a
// longitudinal attacker observes.
type Provider struct {
	exchange *Exchange
	seq      atomic.Uint64

	// RequestLog records every ad request the provider auctions.
	adnet.RequestLog
}

// NewProvider wraps an exchange. The options configure its bid-request
// log, as they do for adnet.NewNetwork.
func NewProvider(exchange *Exchange, opts ...adnet.Option) (*Provider, error) {
	if exchange == nil {
		return nil, errors.New("rtb: provider requires an exchange")
	}
	p := &Provider{exchange: exchange}
	for _, opt := range opts {
		opt(&p.RequestLog)
	}
	return p, nil
}

// RequestAds implements the edge.AdProvider contract.
func (p *Provider) RequestAds(userID string, loc geo.Point, at time.Time, limit int) []adnet.Ad {
	id := fmt.Sprintf("req-%08d", p.seq.Add(1))
	p.Append(adnet.BidRecord{UserID: userID, Loc: loc, Time: at})

	slots := limit
	if slots <= 0 {
		slots = 10
	}
	results, err := p.exchange.RunMultiSlotAuction(context.Background(), BidRequest{
		ID: id, UserID: userID, Loc: loc, At: at,
	}, slots)
	if err != nil {
		return nil // no fill: the user simply gets no ads
	}
	ads := make([]adnet.Ad, len(results))
	for i, r := range results {
		ads[i] = r.Winner.Ad
	}
	return ads
}
