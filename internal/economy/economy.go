// Package economy implements Grid economies for resource allocation — the
// third capability the paper's conclusion previews for VGrADS, modeled on
// the G-commerce work the paper cites ([24] Wolski et al., "G-commerce:
// Market formulations controlling resource allocation on the computational
// grid"). Two market formulations are provided:
//
//   - a commodities market, in which each site sells interchangeable
//     node-rounds at a posted price that an auctioneer adjusts toward
//     supply/demand equilibrium (tâtonnement); and
//   - sealed-bid auctions, in which every round all offered nodes are
//     auctioned to the highest bidders.
//
// G-commerce's central finding — commodity markets produce smoother prices
// and comparable utilization versus auctions — is reproduced by the
// economy experiment.
package economy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Producer offers a site's nodes to the market each round.
type Producer struct {
	Site     string
	Capacity int     // node-rounds offered per round
	Cost     float64 // production cost floor per node-round
}

// Consumer is an application buying node-rounds.
type Consumer struct {
	Name     string
	Budget   float64 // money per round
	Demand   int     // node-rounds wanted per round
	MaxPrice float64 // reservation price per node-round
}

// Purchase records one consumer's allocation from one site in a round.
type Purchase struct {
	Consumer string
	Site     string
	Units    int
	Price    float64
}

// RoundResult summarizes one market round.
type RoundResult struct {
	Prices      map[string]float64 // per site, after adjustment
	Purchases   []Purchase
	Demand      int // total units requested
	Supply      int // total units offered
	Sold        int
	Utilization float64 // sold / supply
}

// CommodityMarket is the posted-price market with tâtonnement adjustment.
type CommodityMarket struct {
	Producers []*Producer
	Consumers []*Consumer
	// Alpha is the price adjustment rate per round (fraction of price per
	// unit of relative excess demand).
	Alpha float64

	prices map[string]float64
}

// NewCommodityMarket creates a market with every site's price starting at
// its cost floor plus a small margin.
func NewCommodityMarket(producers []*Producer, consumers []*Consumer, alpha float64) (*CommodityMarket, error) {
	if len(producers) == 0 || len(consumers) == 0 {
		return nil, fmt.Errorf("economy: need producers and consumers")
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.1
	}
	m := &CommodityMarket{Producers: producers, Consumers: consumers, Alpha: alpha,
		prices: make(map[string]float64)}
	for _, p := range producers {
		if p.Capacity <= 0 || p.Cost <= 0 {
			return nil, fmt.Errorf("economy: producer %q needs positive capacity and cost", p.Site)
		}
		m.prices[p.Site] = p.Cost * 1.1
	}
	return m, nil
}

// Round clears one market round: consumers buy greedily from the cheapest
// acceptable sites within their budgets; oversubscribed sites allocate
// first-come by consumer order (deterministic); then prices adjust toward
// equilibrium.
func (m *CommodityMarket) Round() RoundResult {
	res := RoundResult{Prices: make(map[string]float64)}
	remaining := make(map[string]int, len(m.Producers))
	demandAt := make(map[string]int, len(m.Producers))
	for _, p := range m.Producers {
		remaining[p.Site] = p.Capacity
		res.Supply += p.Capacity
	}

	// Sites sorted by current price (cheapest first), name-stable.
	sites := make([]string, 0, len(m.prices))
	for s := range m.prices {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		if m.prices[sites[i]] != m.prices[sites[j]] {
			return m.prices[sites[i]] < m.prices[sites[j]]
		}
		return sites[i] < sites[j]
	})

	for _, c := range m.Consumers {
		want := c.Demand
		budget := c.Budget
		res.Demand += want
		for _, site := range sites {
			if want == 0 {
				break
			}
			price := m.prices[site]
			if price > c.MaxPrice || price > budget {
				continue
			}
			// Record demand at this price point whether or not stock
			// remains (the auctioneer needs true demand).
			afford := int(budget / price)
			take := want
			if afford < take {
				take = afford
			}
			demandAt[site] += take
			if remaining[site] < take {
				take = remaining[site]
			}
			if take <= 0 {
				continue
			}
			remaining[site] -= take
			want -= take
			budget -= float64(take) * price
			res.Sold += take
			res.Purchases = append(res.Purchases, Purchase{
				Consumer: c.Name, Site: site, Units: take, Price: price,
			})
		}
	}

	// Tâtonnement: adjust each site's price by relative excess demand,
	// floored at the production cost.
	for _, p := range m.Producers {
		price := m.prices[p.Site]
		excess := float64(demandAt[p.Site]-p.Capacity) / float64(p.Capacity)
		price *= 1 + m.Alpha*excess
		if price < p.Cost {
			price = p.Cost
		}
		m.prices[p.Site] = price
		res.Prices[p.Site] = price
	}
	if res.Supply > 0 {
		res.Utilization = float64(res.Sold) / float64(res.Supply)
	}
	return res
}

// Auctioneer runs per-round sealed-bid uniform-price auctions over the
// pooled node supply.
type Auctioneer struct {
	Producers []*Producer
	Consumers []*Consumer
}

// NewAuctioneer creates the auction formulation over the same participants.
func NewAuctioneer(producers []*Producer, consumers []*Consumer) (*Auctioneer, error) {
	if len(producers) == 0 || len(consumers) == 0 {
		return nil, fmt.Errorf("economy: need producers and consumers")
	}
	return &Auctioneer{Producers: producers, Consumers: consumers}, nil
}

// Round clears one auction: every consumer bids its per-unit valuation
// (budget spread over its demand, capped by its reservation price) for each
// wanted unit; the highest bids win the pooled supply and pay the lowest
// winning bid (uniform price), floored at the maximum producer cost of the
// units actually sourced.
func (a *Auctioneer) Round() RoundResult {
	res := RoundResult{Prices: make(map[string]float64)}
	type bid struct {
		consumer string
		value    float64
	}
	var bids []bid
	for _, c := range a.Consumers {
		if c.Demand <= 0 {
			continue
		}
		res.Demand += c.Demand
		value := math.Min(c.MaxPrice, c.Budget/float64(c.Demand))
		for u := 0; u < c.Demand; u++ {
			bids = append(bids, bid{consumer: c.Name, value: value})
		}
	}
	sort.SliceStable(bids, func(i, j int) bool { return bids[i].value > bids[j].value })

	// Pool supply cheapest-first.
	prods := append([]*Producer(nil), a.Producers...)
	sort.Slice(prods, func(i, j int) bool {
		if prods[i].Cost != prods[j].Cost {
			return prods[i].Cost < prods[j].Cost
		}
		return prods[i].Site < prods[j].Site
	})
	for _, p := range prods {
		res.Supply += p.Capacity
	}

	// Winners: top bids up to supply, each above the marginal unit's cost.
	sold := 0
	clearing := 0.0
	prodIdx, prodUsed := 0, 0
	for _, b := range bids {
		if sold >= res.Supply || prodIdx >= len(prods) {
			break
		}
		cost := prods[prodIdx].Cost
		if b.value < cost {
			break // remaining bids are lower still
		}
		res.Purchases = append(res.Purchases, Purchase{
			Consumer: b.consumer, Site: prods[prodIdx].Site, Units: 1, Price: b.value,
		})
		sold++
		prodUsed++
		if prodUsed >= prods[prodIdx].Capacity {
			prodIdx++
			prodUsed = 0
		}
	}
	// Uniform clearing price: the lowest winning bid.
	if sold > 0 {
		clearing = res.Purchases[len(res.Purchases)-1].Price
		for i := range res.Purchases {
			res.Purchases[i].Price = clearing
		}
	}
	for _, p := range prods {
		res.Prices[p.Site] = clearing
	}
	res.Sold = sold
	if res.Supply > 0 {
		res.Utilization = float64(sold) / float64(res.Supply)
	}
	return res
}

// Series captures per-round aggregates for stability analysis.
type Series struct {
	MeanPrices   []float64
	Utilizations []float64
}

// PriceVolatility returns the mean absolute round-to-round relative price
// change — G-commerce's smoothness metric.
func (s *Series) PriceVolatility() float64 {
	if len(s.MeanPrices) < 2 {
		return 0
	}
	sum := 0.0
	for i := 1; i < len(s.MeanPrices); i++ {
		prev := s.MeanPrices[i-1]
		if prev == 0 {
			continue
		}
		sum += math.Abs(s.MeanPrices[i]-prev) / prev
	}
	return sum / float64(len(s.MeanPrices)-1)
}

// MeanUtilization averages utilization over all rounds.
func (s *Series) MeanUtilization() float64 {
	if len(s.Utilizations) == 0 {
		return 0
	}
	sum := 0.0
	for _, u := range s.Utilizations {
		sum += u
	}
	return sum / float64(len(s.Utilizations))
}

// Market is either formulation.
type Market interface {
	Round() RoundResult
}

// Simulate runs rounds of a market under stochastic demand: each round
// every consumer's demand is re-drawn uniformly from [0, 2*base] (seeded,
// deterministic), mimicking G-commerce's fluctuating consumer populations.
// All randomness flows through the explicit rng (never the global source),
// so a run is fully reproducible from its seed; a nil rng falls back to a
// fixed-seed source rather than nondeterminism.
func Simulate(m Market, consumers []*Consumer, rounds int, rng *rand.Rand) *Series {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	base := make([]int, len(consumers))
	for i, c := range consumers {
		base[i] = c.Demand
	}
	s := &Series{}
	var sites []string
	for r := 0; r < rounds; r++ {
		for i, c := range consumers {
			c.Demand = rng.Intn(2*base[i] + 1)
		}
		res := m.Round()
		// Sum in site-name order: float addition is not associative, so
		// map order would make the mean differ in its last bits run to run.
		sites = sites[:0]
		for site := range res.Prices {
			sites = append(sites, site)
		}
		sort.Strings(sites)
		mean := 0.0
		for _, site := range sites {
			mean += res.Prices[site]
		}
		if len(res.Prices) > 0 {
			mean /= float64(len(res.Prices))
		}
		s.MeanPrices = append(s.MeanPrices, mean)
		s.Utilizations = append(s.Utilizations, res.Utilization)
	}
	for i, c := range consumers {
		c.Demand = base[i]
	}
	return s
}
