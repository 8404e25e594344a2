(* The four workloads, and the inputs each one feeds the cluster.

   Inputs depend only on the workload and the seed: the arrival
   schedule, each transaction's keys, the crash schedule and the
   restart probes are generated once per invocation, before any cluster
   exists, and every rep replays the same arrays.

   Arrivals are open-loop Poisson at [tps], independent of completions.
   Keys are scrambled-Zipfian: a Zipf rank is hashed onto the keyspace,
   so the hot keys spread over all four range-partitioned shards
   instead of piling onto shard 0. *)

open Tabs_sim
open Tabs_core

type mix =
  | Blind_write  (** one write at the key's home shard *)
  | Read_mostly of { read_frac : float }
      (** [read_frac] of transactions read two keys of one shard, the
          rest write one key *)
  | Transfers of { cross_frac : float }
      (** a 1-unit transfer; [cross_frac] of them between two shards *)

type t = {
  name : string;
  keys : int;  (** int-array cells or bank accounts *)
  theta : float;  (** Zipf skew *)
  tps : float;  (** offered load, transactions per virtual second *)
  horizon_s : int;  (** arrival window, virtual seconds *)
  warmup_s : int;  (** arrivals before this are not sampled *)
  mix : mix;
  crash_every_s : int option;
      (** crash one shard's node every period, rotating over the
          shards, and restart it [restart_delay] later *)
}

let shards = 4

(* nominal loads: about 70% of each workload's highest rate meeting the
   p99 limit (see README.md), rounded down to 5 tps *)
let hot_write =
  {
    name = "hot_write";
    keys = 16_384;
    theta = 0.9;
    tps = 30.;
    horizon_s = 1_200;
    warmup_s = 20;
    mix = Blind_write;
    crash_every_s = None;
  }

let cold_read =
  {
    name = "cold_read";
    keys = 1_048_576;
    theta = 0.6;
    tps = 60.;
    horizon_s = 200;
    warmup_s = 20;
    mix = Read_mostly { read_frac = 0.9 };
    crash_every_s = None;
  }

let transfer_2pc =
  {
    name = "transfer_2pc";
    keys = 16_384;
    theta = 0.5;
    tps = 20.;
    horizon_s = 540;
    warmup_s = 20;
    mix = Transfers { cross_frac = 0.5 };
    crash_every_s = None;
  }

let crash_restart =
  {
    transfer_2pc with
    name = "crash_restart";
    tps = 20.;
    horizon_s = 1_200;
    crash_every_s = Some 20;
  }

let all = [ hot_write; cold_read; transfer_2pc; crash_restart ]

let find name = List.find_opt (fun w -> w.name = name) all

let restart_delay = 500_000

let initial_balance = 1_000

let accounts w = match w.mix with Transfers _ -> true | _ -> false

(* the logical server name the data set is deployed under *)
let keyspace w = if accounts w then "acct" else "cells"

type op = Read of int | Write of int | Transfer of { from_ : int; to_ : int }

type txn = {
  due : int;
      (** virtual microseconds after the arrival window opens (for a
          probe: after its restart begins) *)
  ops : op list;
  home : int;  (** shard of the first key: the gateway runs it *)
  touches : int;  (** bit set of the shards its keys live on *)
}

type inputs = {
  arrivals : txn array;
  probes : txn array;  (** one per shard, issued as that shard restarts *)
  crashes : (int * int) list;  (** (virtual µs into the window, shard) *)
}

(* A 63-bit multiply-xorshift mix of the rank; collisions merely merge
   a few ranks. *)
let scramble ~keys rank =
  let x = (rank + 1) * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1CE4E5B9 in
  let x = x lxor (x lsr 32) in
  (x land max_int) mod keys

(* The same placement [Sharded] deploys: contiguous, equal ranges. *)
let placement w =
  let p = Placement.create (Topology.one_per_node ~shards) in
  Placement.partition p ~server:(keyspace w) ~keys:w.keys;
  p

(* One Poisson inter-arrival gap in microseconds (at least 1). *)
let poisson_gap rng ~tps =
  let u = Rng.float rng in
  max 1 (int_of_float (-.log (1. -. u) *. 1_000_000. /. tps))

let op_keys = function
  | Read k | Write k -> [ k ]
  | Transfer { from_; to_ } -> [ from_; to_ ]

let generate w ~seed =
  let rng = Rng.create ~seed in
  let zipf = Rng.Zipf.create ~n:w.keys ~theta:w.theta in
  let p = placement w in
  let shard_of key = Placement.shard_of p ~server:(keyspace w) ~key in
  let ranges =
    Array.of_list
      (List.map (fun (_, lo, hi) -> (lo, hi)) (Placement.ranges p ~server:(keyspace w)))
  in
  let draw () = scramble ~keys:w.keys (Rng.Zipf.sample zipf rng) in
  (* fold a drawn key into shard [s]'s range, keeping its popularity *)
  let into s k =
    let lo, hi = ranges.(s) in
    lo + (k mod (hi - lo))
  in
  let other_than s k =
    let lo, hi = ranges.(s) in
    lo + ((k - lo + 1) mod (hi - lo))
  in
  let txn due ops =
    let touches =
      List.fold_left
        (fun acc op ->
          List.fold_left (fun acc k -> acc lor (1 lsl shard_of k)) acc (op_keys op))
        0 ops
    in
    { due; ops; home = shard_of (List.hd (op_keys (List.hd ops))); touches }
  in
  let make due =
    let k = draw () in
    let s = shard_of k in
    match w.mix with
    | Blind_write -> txn due [ Write k ]
    | Read_mostly { read_frac } ->
        if Rng.bool rng ~p:read_frac then txn due [ Read k; Read (into s (draw ())) ]
        else txn due [ Write k ]
    | Transfers { cross_frac } ->
        let target =
          if Rng.bool rng ~p:cross_frac then (s + 1 + Rng.int rng (shards - 1)) mod shards
          else s
        in
        let to_ = into target (draw ()) in
        let to_ = if to_ = k then other_than s k else to_ in
        txn due [ Transfer { from_ = k; to_ } ]
  in
  let horizon = w.horizon_s * 1_000_000 in
  let rec arrive t acc =
    let t = t + poisson_gap rng ~tps:w.tps in
    if t >= horizon then Array.of_list (List.rev acc) else arrive t (make t :: acc)
  in
  let arrivals = arrive 0 [] in
  (* a probe touches only its own shard: a write, or a transfer to the
     neighbouring account *)
  let probes =
    Array.init shards (fun s ->
        let k = into s (draw ()) in
        txn 0
          (if accounts w then [ Transfer { from_ = k; to_ = other_than s k } ]
           else [ Write k ]))
  in
  let crashes =
    match w.crash_every_s with
    | None -> []
    | Some period ->
        let period = period * 1_000_000 in
        let rec crash i acc =
          let at = (i + 1) * period in
          if at + restart_delay >= horizon then List.rev acc
          else crash (i + 1) ((at, i mod shards) :: acc)
        in
        crash 0 []
  in
  { arrivals; probes; crashes }
