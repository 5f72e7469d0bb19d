#!/usr/bin/env bash
# Run every diftrans command on a synthetic market through the `diftrans` on PATH.
#
# Usage, from the repository root:  bash .github/run-every-command.sh DIR
#
# pytest imports src/, so only this script runs the installed package on a
# market and a willingness-to-pay curve.  It writes its inputs and outputs
# in DIR.  The market has a second control city, `inland`, so `dit`,
# `ci --estimator dit` and `did` also run with the pooled control
# `coastal,inland`.  `report` bundles the JSON files the commands before it
# write.  Any command that exits non-zero stops the script with its status.
# Each CSV the commands write must have its header line and its line count,
# and no cell may hold a numpy scalar's repr such as `np.float64(...)`,
# which numpy 2 prints for a numpy float written by its repr.
# Last, a pooled control with a typo, a treated city with a typo, a month in
# both windows, a pair of windows whose unit totals multiply past 2**53 and a
# scan threshold that no bandwidth meets must each exit 1 with exactly one
# line on stderr; the failed scan writes its CSV and no report.  So must a
# quota past the market size, a negative bandwidth and a grid that starts
# below zero, each with an input file that does not exist: these values are
# checked before the input is read, so the error names the flag, not the file.
# A market larger than one block of the byte pass (256 KiB), written once
# with LF and once with CRLF line ends, must ingest to the same rows, units
# and cities.
set -eu

# Fail unless the CSV file $1 has the header line $2 and $3 lines in all.
csv_is() {
    if [ "$(head -n 1 "$1")" != "$2" ] || [ "$(wc -l < "$1")" -ne "$3" ]; then
        echo "expected header $2 and $3 lines in $1, got:" >&2
        head -n 3 "$1" >&2
        exit 1
    fi
}

# Run diftrans with the arguments given; fail unless it exits 1 with one stderr line.
fails_in_one_line() {
    status=0
    diftrans "$@" > /dev/null 2> error.txt || status=$?
    if [ "$status" -ne 1 ] || [ "$(wc -l < error.txt)" -ne 1 ]; then
        echo "expected exit 1 and one stderr line, got exit $status from: diftrans $*" >&2
        cat error.txt >&2
        exit 1
    fi
}

# As fails_in_one_line with the arguments after $1; fail unless the line holds $1.
fails_naming() {
    word=$1
    shift
    fails_in_one_line "$@"
    if ! grep -qF -e "$word" error.txt; then
        echo "expected an error naming $word from: diftrans $*" >&2
        cat error.txt >&2
        exit 1
    fi
}

PYTHONPATH=tests${PYTHONPATH:+:$PYTHONPATH} python -c "import sys; from _synth import two_city_records, write_csv; write_csv(sys.argv[1], two_city_records(4000, 1600, 0.3, seed=5, growth=0.03, extra_controls=('inland',)))" "$1/market.csv"
PYTHONPATH=tests${PYTHONPATH:+:$PYTHONPATH} python -c "import sys; from _synth import two_city_records, write_csv; write_csv(sys.argv[1], two_city_records(20000, 8000, 0.3, seed=5, growth=0.03, extra_controls=('inland', 'north', 'west')))" "$1/big_lf.csv"
cd "$1"
printf 'n,v\n0,280000\n700000,0\n' > wtp.csv
window="--pre 2010-01:2010-12 --post 2011-01:2011-12"
diftrans dit --input market.csv --treated-city metro --control-city coastal $window --d-grid 0:8000:1000 --sims 40 --seed 3 --threshold 0.005 --out-csv curve.csv --out dit.json
diftrans dit --input market.csv --treated-city metro --control-city coastal,inland $window --d-grid 0:8000:1000 --sims 40 --seed 3 --threshold 0.005 --out-csv curve_pooled.csv --out dit_pooled.json
diftrans ci --input market.csv --city metro --control-city coastal $window --estimator dit --d 2000 --draws 40 --seed 21 --out ci.json
diftrans ci --input market.csv --city metro --control-city coastal,inland $window --estimator dit --d 2000 --draws 40 --seed 21 --out ci_pooled.json
diftrans equilibrium --wtp wtp.csv --s 0.1,0.2 --out equilibrium.json
diftrans ci --input market.csv --city metro $window --d 2000 --draws 40 --seed 21 --map net-gains --wtp wtp.csv --market-size 50000 --quota 20000 --out ci_net_gains.json
diftrans scan --input market.csv --city metro $window --d-grid 0:4000:1000 --sims 10 --threshold 0.5 --out-csv scan.csv --out scan.json
diftrans transport --input market.csv --city metro $window --d 2000 --plan plan.csv --out transport.json
diftrans did --input market.csv --treated-city metro --control-cities coastal $window --out did.json
diftrans did --input market.csv --treated-city metro --control-cities coastal,inland $window --out did_pooled.json
# z = 0.05 < s puts the first trades on the speculators' flat segment.
diftrans equilibrium --wtp wtp.csv --speculator-share 0.05 --s 0.1 --out equilibrium_speculators.json
diftrans ingest --input market.csv --out ingest.json
diftrans did --input market.csv --treated-city metro --control-cities coastal $window --weighting rows --out did_rows.json
diftrans dit --input market.csv --treated-city metro --control-city coastal $window --d-grid 0:8000:1000 --sims 40 --seed 3 --threshold 0.005 --diag-pre 2010-01:2010-06 --diag-post 2010-07:2010-12 --tau 0.5 --trends-csv trends.csv --out-csv curve_trends.csv --out dit_trends.json
diftrans ci --input market.csv --city metro $window --d 2000 --draws 40 --seed 21 --dump-draws draws.csv --out ci_draws.json
# s_notc = 0.25 here, below 30 of the 40 share draws: they cannot be inverted and are empty.
diftrans ci --input market.csv --city metro $window --map p --wtp wtp.csv --market-size 50000 --quota 37500 --d 2000 --draws 40 --seed 21 --dump-draws draws_nan.csv --out ci_nan.json
diftrans equilibrium --wtp wtp.csv --s 0.1,0.2 --price-floor 150000 --out-csv eq.csv --out equilibrium_floor.json
scan_header=d,real_cost,placebo_mean,placebo_sd,q025,q25,q50,q75,q975,dit
for name in curve curve_pooled curve_trends; do
    csv_is $name.csv $scan_header 10
done
csv_is scan.csv $scan_header 6
csv_is trends.csv d,cost_treated,cost_control,difference 10
csv_is plan.csv i,j,x_i,x_j,mass 333
csv_is draws.csv draw_index,value 41
csv_is draws_nan.csv draw_index,value 41
csv_is eq.csv s,p,t,v_seller,v_buyer,gross_gains,tc_total,net_gains,tc_share,meets_price_floor 3
if [ "$(grep -c ',$' draws_nan.csv)" -ne 30 ] || grep -q ',$' draws.csv; then
    echo "expected 30 empty draws in draws_nan.csv and none in draws.csv" >&2
    exit 1
fi
if grep -l 'np\.' ./*.csv; then
    echo "a CSV above holds a numpy scalar's repr" >&2
    exit 1
fi
sed 's/$/\r/' big_lf.csv > big_crlf.csv
for ending in lf crlf; do
    if [ "$(wc -c < big_$ending.csv)" -le 262144 ]; then
        echo "expected big_$ending.csv to be larger than 256 KiB" >&2
        exit 1
    fi
    diftrans ingest --input big_$ending.csv --out ingest_$ending.json
done
python -c "import json, sys; lf, crlf = (json.load(open(p)) for p in sys.argv[1:]); keys = ('rows', 'total_units', 'cities'); sys.exit([lf[k] for k in keys] != [crlf[k] for k in keys] or lf['rows'] != 20280)" ingest_lf.json ingest_crlf.json || {
    echo "ingest_lf.json and ingest_crlf.json differ in rows, total_units or cities, or do not hold 20280 rows" >&2
    exit 1
}
diftrans report --scan scan.json --dit dit.json --equilibrium equilibrium_speculators.json --did did.json --ci ci.json --markdown report.md --out report.json
fails_in_one_line dit --input market.csv --treated-city metro --control-city coastal,inlnad $window --d-grid 0:8000:1000 --sims 40 --seed 3 --threshold 0.005 --out-csv curve_typo.csv --out dit_typo.json
fails_in_one_line did --input market.csv --treated-city metro --control-cities coastal,inlnad $window --out did_typo.json
fails_in_one_line transport --input market.csv --city metro --pre 2010-01:2010-12 --post 2010-12:2011-12 --d 2000 --out transport_overlap.json
fails_in_one_line did --input market.csv --treated-city metr0 --control-cities coastal $window --out did_treated_typo.json
# 10**8 units in each window: their product passes 2**53, past which costs are not exact.
printf 'city,year,month,price,quantity\nmetro,2010,1,50000,100000000\nmetro,2011,1,52000,100000000\n' > huge.csv
fails_in_one_line transport --input huge.csv --city metro $window --d 2000 --out transport_huge.json
# No placebo mean is below 0, so the scan's selection fails.
fails_in_one_line scan --input market.csv --city metro $window --d-grid 0:4000:1000 --sims 10 --threshold 0 --out-csv scan_failed.csv --out scan_failed.json
if [ -e scan_failed.json ] || [ ! -s scan_failed.csv ]; then
    echo "a failed scan must write its CSV and no report" >&2
    exit 1
fi
fails_naming quota ci --input absent.csv --city metro $window --d 2000 --map p --wtp wtp.csv --quota 800000 --out ci_quota.json
fails_naming --d transport --input absent.csv --city metro $window --d=-5 --out transport_negative.json
fails_naming --d ci --input absent.csv --city metro $window --d=-5 --out ci_negative.json
fails_naming grid scan --input absent.csv --city metro $window --d-grid=-1000:3000:1000 --out-csv scan_negative.csv --out scan_negative.json
fails_naming grid dit --input absent.csv --treated-city metro --control-city coastal $window --d-grid=-1000:3000:1000 --out-csv dit_negative.csv --out dit_negative.json
