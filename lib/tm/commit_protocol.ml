(* Which atomic-commitment protocol a node's Transaction Manager runs
   for its distributed transactions. [Two_phase] is the paper's tree
   presumed-abort 2PC and the default everywhere; [Paxos] is Gray &
   Lamport's Paxos Commit with 2F+1 acceptor replicas, the F=0
   degenerate case of which is 2PC. The setting is cluster-wide by
   convention: every node of a cluster must be created with the same
   value, and the acceptor replicas live on nodes [0 .. 2F] (so a
   cluster running [Paxos { f }] needs at least 2F+1 nodes). *)

type t = Two_phase | Paxos of { f : int }

let default = Two_phase

let to_string = function
  | Two_phase -> "2pc"
  | Paxos { f } -> Printf.sprintf "paxos:%d" f

let of_string s =
  match String.lowercase_ascii s with
  | "2pc" | "twophase" | "two-phase" | "two_phase" -> Some Two_phase
  | "paxos" -> Some (Paxos { f = 1 })
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "paxos" -> (
          match
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some f when f >= 1 && f <= 3 -> Some (Paxos { f })
          | _ -> None)
      | _ -> None)
